//! Figure 3 / Table 1: CPU in-place transposition throughput histograms.
//!
//! Paper setup: 1000 matrices with m, n uniform in [1000, 10000), 64-bit
//! elements, Intel Core i7-950 (4C/8T). Implementations: Intel MKL
//! `mkl_dimatcopy` (serial cycle following), C2R sequential, C2R with 8
//! threads, and Gustavson et al.
//!
//! Our substitutions (DESIGN.md): classic cycle-following for MKL,
//! `ipt-baselines::gustavson` for Gustavson; thread count is whatever the
//! host offers (reported). Default dimensions are scaled down — pass
//! `--full` for paper scale.
//!
//! Paper reference medians (GB/s): MKL 0.067, C2R 1T 0.336,
//! C2R 8T 1.26, Gustavson 1.27.

use ipt_bench::harness::*;
use ipt_core::Scratch;

fn main() {
    let usage = "fig3_table1 [--samples N] [--min N] [--max N] [--seed N] \
                 [--full] [--verify] [--csv PATH]";
    let mut args = Args::parse(usage).unwrap_or_else(|code| std::process::exit(code));
    if args.samples == 0 {
        args.samples = if args.full { 1000 } else { 40 };
    }
    if args.min_dim == 0 {
        args.min_dim = if args.full { 1000 } else { 200 };
    }
    if args.max_dim == 0 {
        args.max_dim = if args.full { 10000 } else { 1200 };
    }
    let threads = ipt_pool::num_threads();
    println!(
        "Figure 3 / Table 1: {} samples, m,n in [{}, {}), f64, {} pool threads",
        args.samples, args.min_dim, args.max_dim, threads
    );

    type Algo = fn(&mut [u64], usize, usize);
    let algos: Vec<(&str, Algo)> = vec![
        ("MKL-sub (cycle following)", |d, m, n| {
            ipt_baselines::transpose_cycle_following(d, m, n)
        }),
        ("C2R, 1 thread", |d, m, n| {
            ipt_core::c2r(d, m, n, &mut Scratch::new())
        }),
        ("C2R, parallel", |d, m, n| {
            ipt_parallel::c2r_parallel(d, m, n, &ipt_parallel::ParOptions::default()).unwrap()
        }),
        ("Gustavson-style tiled", |d, m, n| {
            ipt_baselines::transpose_gustavson(d, m, n);
        }),
    ];

    let mut rng = Rng64::new(args.seed);
    let shapes: Vec<(usize, usize)> = (0..args.samples)
        .map(|_| {
            (
                rng.range(args.min_dim, args.max_dim),
                rng.range(args.min_dim, args.max_dim),
            )
        })
        .collect();

    let mut csv = Csv::new("algo,m,n,gbps");
    let mut all: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, f) in &algos {
        let mut gbps = Vec::with_capacity(shapes.len());
        for &(m, n) in &shapes {
            let mut buf = vec![0u64; m * n];
            fill_u64(&mut buf, (m * 31 + n) as u64);
            let secs = time_secs(|| f(&mut buf, m, n));
            if args.verify {
                let mut want = vec![0u64; m * n];
                fill_u64(&mut want, (m * 31 + n) as u64);
                let want =
                    ipt_core::check::reference_transpose(&want, m, n, ipt_core::Layout::RowMajor);
                assert_eq!(buf, want, "{name} produced a wrong transpose on {m}x{n}");
            }
            let t = throughput_gbps(m, n, 8, secs);
            gbps.push(t);
            csv.row(format!("{name},{m},{n},{t:.4}"));
        }
        println!("\n{}", ascii_histogram(&gbps, 20, name));
        all.push((name, gbps));
    }

    println!("=== Table 1: median in-place transposition throughputs (GB/s) ===");
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "implementation", "median", "p10", "p90"
    );
    for (name, gbps) in &all {
        println!(
            "{:<28} {:>10.3} {:>10.3} {:>10.3}",
            name,
            median(gbps),
            percentile(gbps, 10.0),
            percentile(gbps, 90.0)
        );
    }
    println!("\npaper (i7-950): MKL 0.067 | C2R 1T 0.336 | C2R 8T 1.26 | Gustavson 1.27");
    println!("expected shape: cycle-following slowest by ~5x vs C2R 1T; tiled ~ parallel C2R");
    csv.finish(&args.csv);
}
