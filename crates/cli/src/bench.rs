//! `ipt bench` — the fixed benchmark suite behind the committed
//! `BENCH_*.json` baselines.
//!
//! Three modes:
//!
//! * **Run** (`--suite transpose|parallel|kernels|aos|batched`): measure
//!   a fixed, laptop-scale set of shapes and algorithms, print a table,
//!   and write an `ipt-bench-report-v1` JSON report (default
//!   `BENCH_<suite>.json`). Each entry carries median/p10/p90 throughput
//!   (the paper's Eq. 37 metric, `2*m*n*s / t`) and the per-phase
//!   wall-time split collected from `ipt_pool::stats`. With
//!   `--history DIR` the run is additionally archived into `DIR` under a
//!   dated, thread-count-stamped file name (`ipt_bench::history`).
//! * **Compare** (`--compare OLD NEW`): diff two reports entry-by-entry
//!   and exit 3 if any matching entry's median throughput dropped by more
//!   than `--threshold` percent (default 10), or if either median is
//!   unusable (zero/NaN — a corrupt baseline cannot mask a regression).
//!   Entries present in only one report are counted and printed.
//! * **Trend compare** (`--compare NEW --history DIR`): gate NEW against
//!   the trailing median of the last `--window` archived runs per entry,
//!   print a sparkline trend table, and exit 3 on a single-run breach
//!   *or* on monotone multi-run drift whose cumulative drop exceeds the
//!   threshold — the creeping-regression case a pairwise gate misses.

use std::process::ExitCode;

use ipt_bench::harness;
use ipt_bench::history;
use ipt_bench::report::{compare, BenchEntry, BenchReport, PhaseBreak, RecoveryBreak};
use ipt_core::index::C2rParams;
use ipt_core::kernels::{self, RowShuffleKernel, ShuffleDirection};
use ipt_core::{transpose_with, Algorithm, Layout, Scratch};
use ipt_parallel::batched::{c2r_batched, r2c_batched};
use ipt_parallel::{c2r_parallel, phases, r2c_parallel, ParOptions};

pub const BENCH_USAGE: &str = "\
ipt bench — run the fixed benchmark suite / compare reports

USAGE:
  ipt bench --suite transpose|parallel|kernels|aos|batched
            [--out PATH] [--samples N] [--threads N] [--quick] [--model]
            [--scaling] [--history DIR] [--keep N]
  ipt bench --compare OLD.json NEW.json [--threshold PCT]
  ipt bench --compare NEW.json --history DIR [--threshold PCT] [--window K]

Run mode measures a fixed laptop-scale set of shapes and writes an
ipt-bench-report-v1 JSON file (default BENCH_<suite>.json in the current
directory). The `transpose` and `kernels` suites pin the pool to 1
thread (override with --threads); `parallel`, `aos` and `batched` use
the pool default (IPT_THREADS or all cores). --quick shrinks the suite
for smoke tests; for `kernels`, `aos` and `batched` it keeps the full
shape set (so entries stay comparable against the committed baseline)
and only cuts samples. --history DIR also archives the run into DIR as
a dated file (SOURCE_DATE_EPOCH makes the stamp deterministic); --keep N
then prunes the suite's archive to the N newest files, oldest first
(without --keep nothing is pruned). --scaling (parallel and
aos suites only) appends a tall-skinny 65536x8 shape. For the parallel
suite it is one column group of the default u64 width, so only the row
shuffle splits across workers, and on a multi-thread pool a 1-thread
r2c_parallel_1t twin is also measured, so one report carries both ends
of the scaling-efficiency ratio against r2c_parallel. For the aos suite
it is 8 chunks and 16 sub-row groups, so both passes split.
--model additionally stamps every c2r*/r2c* entry with the
phase-attributed cost model's predicted-vs-measured share breakdown
(memsim::phases against the cpu preset — see `ipt model --help` and
MODEL.md), carried in the report JSON under \"model\".

The `kernels` suite isolates the row-shuffle pass (Eq. 31) and pits the
scalar incremental kernel against the run-blocked block4/block8 kernels
plus the `auto` entry, which runs the kernel the shape selects — the
ablation behind the dispatch table.
The `aos` suite measures the skinny-matrix AoS<->SoA specialization
(paper 6.1); `batched` measures many same-shape matrices per call
(16 per entry) through ipt_parallel::batched.

Pairwise compare exits 0 when every entry of NEW is within PCT percent
(default 10) of its OLD median throughput, and 3 when any entry
regressed or either median is unusable (zero/NaN). Entries present in
only one file are counted and reported, never silently dropped. When the
two reports ran with different thread counts the comparison is skipped
with a loud reason and exit 0 — apples-to-oranges numbers must not gate.
Reports written by older builds, whose dispatch stamps are ignored, still
compare.

With --history instead of an OLD file, NEW is gated against the
trailing median of the last K archived runs (default window 8) with the
same thread count, and additionally against monotone drift: >= 3
consecutive declining runs whose cumulative drop exceeds PCT flag even
when each step stayed under the single-run gate.
Exit 3 on either.";

/// The fixed shapes (rows x cols, u64 elements). Deliberately a mix: two
/// coprime-free shapes exercising the pre-rotation (gcd > 1), one
/// coprime shape that skips it (gcd = 1, paper §4.1), and one square.
/// The square is a single 512 x 512 tile, so the parallel entry points
/// run it on the tiled route as one tile transpose.
const SHAPES: [(usize, usize); 4] = [(192, 256), (320, 96), (257, 131), (512, 512)];

/// The `parallel` suite's extra shape (not under `--quick`): 2 x 3
/// tiles, so both passes of the tiled route run and are stamped.
const TILED_SHAPE: (usize, usize) = (1024, 1536);

/// The `--quick` subset: small enough that a debug-build smoke run
/// finishes in well under two seconds.
const QUICK_SHAPES: [(usize, usize); 2] = [(96, 64), (60, 48)];

/// The `kernels` suite shapes: every run-structure regime at >= 1 MiB.
/// `(2048, 1024)` and `(1024, 1024)` have `b = 1` (runs are memcpy
/// segments), `(1024, 2048)` has `b = 2` (strided strips), and
/// `(1031, 1024)` is coprime (one-element runs — the regime where
/// blocking *loses* and the dispatcher must fall back to scalar).
const KERNEL_SHAPES: [(usize, usize); 4] = [(2048, 1024), (1024, 2048), (1024, 1024), (1031, 1024)];

/// The `aos` suite shapes as (n_structs, fields): the paper's Figure 7
/// regime — a huge struct count against a tiny field count (§6.1).
/// `(65536, 4)` and `(65536, 12)` split into whole 512 KiB chunks (both
/// passes run on every struct); 65521 is prime, so `(65521, 8)` peels
/// its last partial chunk.
const AOS_SHAPES: [(usize, usize); 3] = [(65536, 4), (65536, 12), (65521, 8)];

/// The `batched` suite shapes (rows x cols of *each* matrix; the suite
/// transposes [`BATCH`] of them per timed call, sharing one `C2rParams`).
const BATCHED_SHAPES: [(usize, usize); 3] = [(192, 256), (320, 96), (257, 131)];

/// Matrices per batched call: enough for every pool worker to get whole
/// matrices, small enough that a `--quick` debug run stays fast.
const BATCH: usize = 16;

/// The `--scaling` shape: tall-skinny enough that its column passes are
/// one column group of the default u64 width, so the row shuffle is the
/// only pass that splits across workers — the regime the scaling twin
/// measures.
const TALL_SKINNY: (usize, usize) = (65536, 8);

struct BenchOpts {
    suite: Option<String>,
    out: Option<String>,
    samples: usize,
    threads: Option<usize>,
    quick: bool,
    /// Stamp each transpose entry with the predicted-vs-measured phase
    /// share breakdown (`crate::model::model_stamp`).
    model: bool,
    /// Append the [`TALL_SKINNY`] shape (and, for the parallel suite on
    /// a multi-thread pool, a 1-thread R2C twin entry) so one report
    /// carries the scaling-efficiency ratio.
    scaling: bool,
    /// `--compare` paths: `(OLD, Some(NEW))` pairwise, `(NEW, None)`
    /// with `--history`.
    compare: Option<(String, Option<String>)>,
    threshold: f64,
    history: Option<String>,
    window: Option<usize>,
    keep: Option<usize>,
}

/// Parse a flag value that must be a (non-huge) positive integer, with
/// one clean message for every failure mode — including values that
/// overflow usize, which `FromStr` reports confusingly.
fn parse_count(name: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "invalid value {v:?} for {name} (expected a positive integer)"
        )),
        Ok(x) => Ok(x),
    }
}

fn parse(args: &[String]) -> Result<BenchOpts, String> {
    let mut o = BenchOpts {
        suite: None,
        out: None,
        samples: 7,
        threads: None,
        quick: false,
        model: false,
        scaling: false,
        compare: None,
        threshold: 10.0,
        history: None,
        window: None,
        keep: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--suite" => o.suite = Some(grab("--suite")?),
            "--out" => o.out = Some(grab("--out")?),
            "--samples" => o.samples = parse_count("--samples", &grab("--samples")?)?,
            "--threads" => o.threads = Some(parse_count("--threads", &grab("--threads")?)?),
            "--quick" => o.quick = true,
            "--model" => o.model = true,
            "--scaling" => o.scaling = true,
            "--compare" => {
                let first = grab("--compare")?;
                // The second path is optional (trend mode supplies the
                // baseline via --history): grab it only if the next token
                // isn't another flag.
                let second = match it.peek() {
                    Some(s) if !s.starts_with("--") => it.next().cloned(),
                    _ => None,
                };
                o.compare = Some((first, second));
            }
            "--threshold" => {
                let v = grab("--threshold")?;
                o.threshold = v
                    .parse()
                    .map_err(|_| format!("invalid value {v:?} for --threshold"))?;
                if !o.threshold.is_finite() || o.threshold < 0.0 {
                    return Err(format!(
                        "--threshold must be a finite non-negative percent (got {v})"
                    ));
                }
            }
            "--history" => o.history = Some(grab("--history")?),
            "--window" => o.window = Some(parse_count("--window", &grab("--window")?)?),
            "--keep" => o.keep = Some(parse_count("--keep", &grab("--keep")?)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.suite.is_some() == o.compare.is_some() {
        return Err("exactly one of --suite or --compare is required".to_string());
    }
    match (&o.compare, &o.history) {
        (Some((_, Some(_))), Some(_)) => {
            return Err("--compare with --history takes exactly one report (NEW); \
                 the history directory is the baseline"
                .to_string())
        }
        (Some((_, None)), None) => {
            return Err(
                "--compare needs OLD and NEW reports, or a single NEW report plus --history DIR"
                    .to_string(),
            )
        }
        _ => {}
    }
    if o.window.is_some() && o.history.is_none() {
        return Err("--window only applies together with --history".to_string());
    }
    if o.keep.is_some() && (o.history.is_none() || o.suite.is_none()) {
        return Err("--keep only applies to a --suite run with --history".to_string());
    }
    if o.model && o.suite.is_none() {
        return Err("--model only applies to a --suite run".to_string());
    }
    if o.scaling && !matches!(o.suite.as_deref(), Some("parallel") | Some("aos")) {
        return Err("--scaling only applies to the parallel or aos suites".to_string());
    }
    Ok(o)
}

/// Entry point for the `bench` subcommand (exit 0 ok, 2 usage/IO error,
/// 3 regression found).
pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            println!("{BENCH_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{BENCH_USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, second)) = &opts.compare {
        return match (second, &opts.history) {
            (Some(new), _) => run_compare(first, new, opts.threshold),
            (None, Some(dir)) => run_trend_compare(
                first,
                dir,
                opts.threshold,
                opts.window.unwrap_or(history::DEFAULT_WINDOW),
            ),
            (None, None) => unreachable!("rejected in parse"),
        };
    }
    let suite = opts.suite.as_deref().unwrap();
    let report = match run_suite(suite, &opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{suite}.json"));
    if let Err(msg) = report.save(&out) {
        eprintln!("error: {msg}");
        return ExitCode::from(2);
    }
    println!("wrote {} entries to {out}", report.entries.len());
    if let Some(dir) = &opts.history {
        match history::append(dir, &report) {
            Ok(path) => println!("archived history {path}"),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
        if let Some(keep) = opts.keep {
            match history::prune(dir, &report.name, keep) {
                Ok(removed) if removed.is_empty() => {}
                Ok(removed) => println!(
                    "pruned {} archived run(s) past --keep {keep}",
                    removed.len()
                ),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_compare(old_path: &str, new_path: &str, threshold: f64) -> ExitCode {
    let (old, new) = match (BenchReport::load(old_path), BenchReport::load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cmp = compare(&old, &new, threshold);
    if let Some(reason) = &cmp.skipped {
        println!("comparison skipped (not gated): {reason}");
        return ExitCode::SUCCESS;
    }
    if cmp.old_only > 0 || cmp.new_only > 0 {
        println!(
            "note: {} entr{} only in {old_path}, {} only in {new_path} (not gated)",
            cmp.old_only,
            if cmp.old_only == 1 { "y" } else { "ies" },
            cmp.new_only,
        );
    }
    if cmp.rows.is_empty() {
        println!("no matching entries between {old_path} and {new_path}");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<24} {:>11} {:>12} {:>12} {:>9}",
        "algorithm", "shape", "old GB/s", "new GB/s", "change"
    );
    for r in &cmp.rows {
        let change = if r.change_pct.is_finite() {
            format!("{:>+8.1}%", r.change_pct)
        } else {
            format!("{:>9}", "n/a")
        };
        let flag = match (&r.reason, r.regressed) {
            (Some(reason), _) => format!("  REGRESSION ({reason})"),
            (None, true) => "  REGRESSION".to_string(),
            (None, false) => String::new(),
        };
        println!(
            "{:<24} {:>5}x{:<5} {:>12.3} {:>12.3} {change}{flag}",
            r.algorithm, r.m, r.n, r.old_gbps, r.new_gbps,
        );
    }
    let regressions = cmp.regressions();
    if regressions > 0 {
        eprintln!(
            "{regressions} entr{} regressed by more than {threshold}% (median throughput)",
            if regressions == 1 { "y" } else { "ies" }
        );
        return ExitCode::from(3);
    }
    println!("ok: no entry regressed by more than {threshold}%");
    ExitCode::SUCCESS
}

fn run_trend_compare(new_path: &str, dir: &str, threshold: f64, window: usize) -> ExitCode {
    let new = match BenchReport::load(new_path) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let hist = match history::load(dir, &new.name) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if hist.is_empty() {
        eprintln!(
            "error: no archived reports for suite {:?} in {dir}",
            new.name
        );
        return ExitCode::from(2);
    }
    let t = history::trend(&hist, &new, threshold, window);
    println!(
        "trend gate: suite {:?}, {} archived run(s) ({} skipped: thread-count mismatch), \
         window {window}, threshold {threshold}%",
        new.name, t.reports_used, t.skipped_threads
    );
    if t.new_only > 0 || t.history_only > 0 {
        println!(
            "note: {} entr{} with no archived sample, {} archived-only (not gated)",
            t.new_only,
            if t.new_only == 1 { "y" } else { "ies" },
            t.history_only,
        );
    }
    if t.rows.is_empty() {
        eprintln!("error: no entry of {new_path} has archived samples in {dir}");
        return ExitCode::from(2);
    }
    println!(
        "{:<24} {:>11} {:>4} {:<12} {:>12} {:>12} {:>9}",
        "algorithm", "shape", "runs", "trend", "trail GB/s", "new GB/s", "change"
    );
    for r in &t.rows {
        let change = if r.change_pct.is_finite() {
            format!("{:>+8.1}%", r.change_pct)
        } else {
            format!("{:>9}", "n/a")
        };
        let mut flags = String::new();
        if r.breach {
            flags.push_str("  BREACH");
            if let Some(reason) = &r.reason {
                flags.push_str(&format!(" ({reason})"));
            }
        }
        if r.drift {
            flags.push_str(&format!(
                "  DRIFT ({:+.1}% over {} declining runs)",
                r.drift_pct,
                r.drift_steps + 1
            ));
        }
        println!(
            "{:<24} {:>5}x{:<5} {:>4} {:<12} {:>12.3} {:>12.3} {change}{flags}",
            r.algorithm,
            r.m,
            r.n,
            r.series.len(),
            r.spark(),
            r.trailing_median,
            r.new_gbps,
        );
    }
    let flagged = t.flagged();
    if flagged > 0 {
        eprintln!(
            "{flagged} entr{} failed the trend gate (single-run breach or cumulative drift \
             past {threshold}%)",
            if flagged == 1 { "y" } else { "ies" }
        );
        return ExitCode::from(3);
    }
    println!("ok: no breach and no cumulative drift past {threshold}%");
    ExitCode::SUCCESS
}

/// A boxed benchmark body: `(buf, m, n)` runs one timed pass in place.
type AlgRunner = Box<dyn FnMut(&mut [u64], usize, usize)>;

/// A worker panic (real or injected via `IPT_FAULT`) leaves the matrix
/// torn, so no further timing over that buffer is meaningful. Report the
/// structured abort and exit with a dedicated code so CI can tell a
/// contained abort (4) from a crash (SIGSEGV/101).
fn abort_exit(e: ipt_parallel::TransposeAborted) -> ! {
    eprintln!("ipt bench: {e}");
    std::process::exit(4);
}

fn run_suite(suite: &str, opts: &BenchOpts) -> Result<BenchReport, String> {
    // The transpose and kernels suites measure single-threaded
    // algorithms, so they pin the pool to one worker unless --threads
    // overrides; the parallel, aos and batched suites keep the pool
    // default (IPT_THREADS or all cores).
    match (suite, opts.threads) {
        (_, Some(t)) => ipt_pool::set_num_threads(t),
        ("transpose", None) | ("kernels", None) => ipt_pool::set_num_threads(1),
        _ => {}
    }
    let threads = ipt_pool::num_threads();
    // Fixed-shape suites keep their full shape set under --quick (the
    // compare key is (algorithm, m, n), so CI smoke runs must produce
    // the same entries as the committed baseline) and only cut samples.
    let mut shapes: Vec<(usize, usize)> = match suite {
        "kernels" => KERNEL_SHAPES.to_vec(),
        "aos" => AOS_SHAPES.to_vec(),
        "batched" => BATCHED_SHAPES.to_vec(),
        _ if opts.quick => QUICK_SHAPES.to_vec(),
        _ => SHAPES.to_vec(),
    };
    if suite == "parallel" && !opts.quick {
        shapes.push(TILED_SHAPE);
    }
    if opts.scaling {
        shapes.push(TALL_SKINNY);
    }
    let samples = if opts.quick {
        opts.samples.min(3)
    } else {
        opts.samples
    };
    // Elements moved per timed call: the batched suite transposes BATCH
    // matrices per call, so its buffer and Eq. 37 numerator scale by it.
    let elems_per_call = |m: usize, n: usize| match suite {
        "batched" => BATCH * m * n,
        _ => m * n,
    };

    let mut entries = Vec::new();
    let algorithms: Vec<(&str, AlgRunner)> = match suite {
        "transpose" => {
            let mut s1 = Scratch::new();
            let mut s2 = Scratch::new();
            vec![
                (
                    "c2r",
                    Box::new(move |buf: &mut [u64], m, n| {
                        transpose_with(buf, m, n, Layout::RowMajor, Algorithm::C2r, &mut s1)
                    }),
                ),
                (
                    "r2c",
                    Box::new(move |buf: &mut [u64], m, n| {
                        transpose_with(buf, m, n, Layout::RowMajor, Algorithm::R2c, &mut s2)
                    }),
                ),
                (
                    "c2r_parallel",
                    Box::new(|buf: &mut [u64], m, n| {
                        c2r_parallel(buf, m, n, &ParOptions::default())
                            .unwrap_or_else(|e| abort_exit(e))
                    }),
                ),
                (
                    "r2c_parallel",
                    Box::new(|buf: &mut [u64], m, n| {
                        r2c_parallel(buf, m, n, &ParOptions::default())
                            .unwrap_or_else(|e| abort_exit(e))
                    }),
                ),
            ]
        }
        "parallel" => vec![
            (
                "c2r_parallel",
                Box::new(|buf: &mut [u64], m, n| {
                    c2r_parallel(buf, m, n, &ParOptions::default())
                        .unwrap_or_else(|e| abort_exit(e))
                }) as AlgRunner,
            ),
            (
                "r2c_parallel",
                Box::new(|buf: &mut [u64], m, n| {
                    r2c_parallel(buf, m, n, &ParOptions::default())
                        .unwrap_or_else(|e| abort_exit(e))
                }),
            ),
        ],
        "kernels" => {
            // Row-shuffle pass only (the hot path the kernel family
            // targets), serial, one entry per (kernel, shape): the
            // ablation table behind the dispatch heuristic. `auto` runs
            // whatever `kernels::select` picks, so a heuristic change
            // shows up as a diff against the fixed-kernel entries.
            fn kernel_runner(forced: Option<RowShuffleKernel>) -> AlgRunner {
                let mut s = Scratch::new();
                Box::new(move |buf: &mut [u64], m, n| {
                    let p = C2rParams::new(m, n);
                    let kernel = forced.unwrap_or_else(|| kernels::select(&p));
                    ipt_pool::stats::record_kernel(kernel.name());
                    let tmp = s.ensure(n, 0u64);
                    kernels::row_shuffle(buf, &p, tmp, kernel, ShuffleDirection::Inverse);
                })
            }
            vec![
                (
                    "row_shuffle_scalar",
                    kernel_runner(Some(RowShuffleKernel::Scalar)),
                ),
                (
                    "row_shuffle_block4",
                    kernel_runner(Some(RowShuffleKernel::Block4)),
                ),
                (
                    "row_shuffle_block8",
                    kernel_runner(Some(RowShuffleKernel::Block8)),
                ),
                ("row_shuffle_auto", kernel_runner(None)),
            ]
        }
        "aos" => vec![
            // Shapes are (n_structs, fields); both directions of the §6.1
            // skinny specialization. The content of the buffer doesn't
            // affect the permutation's cost, so each direction can be
            // timed standalone over refilled data.
            (
                "aos_to_soa",
                Box::new(|buf: &mut [u64], m, n| {
                    ipt_aos_soa::aos_to_soa(buf, m, n).unwrap_or_else(|e| abort_exit(e))
                }) as AlgRunner,
            ),
            (
                "soa_to_aos",
                Box::new(|buf: &mut [u64], m, n| {
                    ipt_aos_soa::soa_to_aos(buf, m, n).unwrap_or_else(|e| abort_exit(e))
                }),
            ),
        ],
        "batched" => vec![
            (
                "c2r_batched_b16",
                Box::new(|buf: &mut [u64], m, n| {
                    c2r_batched(buf, BATCH, m, n).unwrap_or_else(|e| abort_exit(e))
                }) as AlgRunner,
            ),
            (
                "r2c_batched_b16",
                Box::new(|buf: &mut [u64], m, n| {
                    r2c_batched(buf, BATCH, m, n).unwrap_or_else(|e| abort_exit(e))
                }),
            ),
        ],
        other => {
            return Err(format!(
                "unknown suite {other:?} (want transpose, parallel, kernels, aos or batched)"
            ))
        }
    };

    println!(
        "suite {suite}: {} shapes x {} algorithms, {samples} samples, {threads} thread(s)",
        shapes.len(),
        algorithms.len()
    );
    for (alg, mut run) in algorithms {
        for &(m, n) in &shapes {
            let e = measure(
                alg,
                m,
                n,
                elems_per_call(m, n),
                samples,
                opts.model,
                &mut *run,
            );
            print_entry(&e);
            entries.push(e);
        }
    }
    if suite == "parallel" && opts.scaling && threads > 1 {
        // The 1-thread twin of the R2C path: the denominator of the
        // scaling-efficiency ratio, in the same report so one file
        // answers "what did N threads buy on this host".
        ipt_pool::set_num_threads(1);
        let mut run = |buf: &mut [u64], m: usize, n: usize| {
            r2c_parallel(buf, m, n, &ParOptions::default()).unwrap_or_else(|e| abort_exit(e))
        };
        for &(m, n) in &shapes {
            let e = measure(
                "r2c_parallel_1t",
                m,
                n,
                elems_per_call(m, n),
                samples,
                opts.model,
                &mut run,
            );
            print_entry(&e);
            let nt = entries
                .iter()
                .find(|x| x.algorithm == "r2c_parallel" && x.m == m && x.n == n);
            if let Some(nt) = nt {
                if e.median_gbps > 0.0 && nt.median_gbps.is_finite() {
                    let speedup = nt.median_gbps / e.median_gbps;
                    println!(
                        "  {:<20} scaling: {threads} threads at {speedup:.2}x over 1 \
                         ({:.0}% efficiency)",
                        "",
                        speedup / threads as f64 * 100.0
                    );
                }
            }
            entries.push(e);
        }
        ipt_pool::set_num_threads(threads);
    }
    Ok(BenchReport {
        name: suite.to_string(),
        threads,
        entries,
    })
}

/// Measure one (algorithm, shape) configuration: an untimed warm-up,
/// then `samples` timed runs over freshly refilled data, with the
/// per-phase wall-time delta collected around the timed region. `elems`
/// is the buffer length in u64s — `m * n` except for batched suites,
/// which move several matrices per call.
fn measure(
    alg: &str,
    m: usize,
    n: usize,
    elems: usize,
    samples: usize,
    model: bool,
    run: &mut dyn FnMut(&mut [u64], usize, usize),
) -> BenchEntry {
    let mut buf = vec![0u64; elems];
    harness::fill_u64(&mut buf, 0);
    run(&mut buf, m, n); // warm-up: page in the buffer, size scratch
    let before = ipt_pool::stats::snapshot();
    let mut tputs = Vec::with_capacity(samples);
    for s in 0..samples {
        harness::fill_u64(&mut buf, s as u64 + 1); // refill untimed
        let secs = harness::time_secs(|| run(&mut buf, m, n));
        tputs.push(harness::throughput_gbps(elems, 1, 8, secs));
    }
    let delta = ipt_pool::stats::snapshot().delta_since(&before);
    if delta.panics_contained > 0 {
        // Shouldn't be reachable (an abort exits above), but if a future
        // runner swallows aborts, make the contamination loud.
        eprintln!(
            "ipt bench: WARNING: {} worker panic(s) contained during {alg} {m}x{n}; \
             timings for this entry are suspect",
            delta.panics_contained
        );
    }
    // Every phase the delta timed: the decomposition's in C2R order, then
    // the rest (the §6.1 passes) in the order they were first timed.
    let mut phases: Vec<PhaseBreak> = delta
        .phases
        .iter()
        .map(|p| PhaseBreak {
            name: p.name.to_string(),
            calls: p.calls,
            nanos: p.nanos,
            bytes: p.bytes,
        })
        .collect();
    phases.sort_by_key(|p| {
        phases::ALL
            .iter()
            .position(|&n| n == p.name)
            .unwrap_or(phases::ALL.len())
    });
    // The model describes single-core traffic of a whole decomposed
    // transpose: stamp only phases that reported payload bytes (a no-op
    // rotation times a call but moves nothing).
    let model = if model {
        let measured: Vec<(&str, u64)> = phases
            .iter()
            .filter(|p| p.bytes > 0)
            .map(|p| (p.name.as_str(), p.nanos))
            .collect();
        crate::model::model_stamp("cpu", alg, m, n, 8, &measured)
    } else {
        None
    };
    // Recovery-ladder tallies, stamped only when a retry rung actually ran
    // during the timed region — a stamped entry flags that faults fired
    // (and were healed) mid-measurement, so its timings include recovery.
    let recovery = (delta.retries_attempted > 0).then_some(RecoveryBreak {
        retries: delta.retries_attempted,
        recovered: delta.recovered,
    });
    BenchEntry {
        algorithm: alg.to_string(),
        m,
        n,
        elem_bytes: 8,
        samples,
        median_gbps: harness::median(&tputs),
        p10_gbps: harness::percentile(&tputs, 10.0),
        p90_gbps: harness::percentile(&tputs, 90.0),
        phases,
        model,
        recovery,
    }
}

fn print_entry(e: &BenchEntry) {
    let total: u64 = e.phases.iter().map(|p| p.nanos).sum();
    let split = if total > 0 {
        let parts: Vec<String> = e
            .phases
            .iter()
            .map(|p| format!("{} {:.0}%", p.name, p.nanos as f64 / total as f64 * 100.0))
            .collect();
        format!("  [{}]", parts.join(", "))
    } else {
        String::new()
    };
    println!(
        "  {:<20} {:>5}x{:<5} median {:8.3} GB/s  (p10 {:.3}, p90 {:.3}){split}",
        e.algorithm, e.m, e.n, e.median_gbps, e.p10_gbps, e.p90_gbps
    );
    if let Some(model) = &e.model {
        println!(
            "  {:<20} model({}): divergence {:.3}, rank {}",
            "",
            model.device,
            model.divergence,
            if model.rank_agrees { "agrees" } else { "flips" }
        );
    }
    if let Some(r) = &e.recovery {
        println!(
            "  {:<20} recovery: {} retry rung(s), {} op(s) recovered",
            "", r.retries, r.recovered
        );
    }
}
