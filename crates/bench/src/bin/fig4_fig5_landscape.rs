//! Figures 4 and 5: C2R / R2C performance landscapes over (m, n).
//!
//! Paper setup: 250000 row-major f64 arrays with m, n in [1000, 25000] on
//! a Tesla K20c; heatmaps show a fast band at small n for C2R (a row fits
//! on chip) and at small m for R2C (a column fits on chip).
//!
//! Here: a deterministic grid sweep over the same axes (scaled by
//! default; `--full` widens), CSV per cell for heatmap plotting, plus an
//! ASCII heatmap and a band-structure summary that checks the paper's
//! qualitative claim: C2R is fastest when columns are few, R2C when rows
//! are few, motivating the `m > n` heuristic of §5.2.

use ipt_bench::harness::*;
use ipt_parallel::ParOptions;
use memsim::model::DeviceModel;
use warp_sim::GpuSim;

fn main() {
    let usage = "fig4_fig5_landscape [--alg c2r|r2c|both] [--mode measured|model|sim] \
                 [--min N] [--max N] [--samples GRID] [--seed N] [--full] [--csv PATH]\n\
                 --mode model prices the passes on a K20c-like analytical device\n\
                 --mode sim   executes the kernels' address streams against the\n\
                              transaction model (warp_sim::GpuSim), mechanistically";
    let mut args = Args::parse(usage).unwrap_or_else(|code| std::process::exit(code));
    let model_mode = args.mode.as_deref() == Some("model");
    let sim_mode = args.mode.as_deref() == Some("sim");
    if args.min_dim == 0 {
        args.min_dim = if args.full || model_mode || sim_mode {
            1000
        } else {
            256
        };
    }
    if args.max_dim == 0 {
        args.max_dim = if args.full || model_mode || sim_mode {
            25000
        } else {
            2304
        };
    }
    let grid = if args.samples == 0 {
        if args.full {
            16
        } else {
            9
        }
    } else {
        args.samples
    };
    let alg = args.alg.clone().unwrap_or_else(|| "both".into());

    let axis: Vec<usize> = (0..grid)
        .map(|i| args.min_dim + i * (args.max_dim - args.min_dim) / (grid - 1).max(1))
        .collect();
    println!(
        "Figures 4/5: {grid}x{grid} grid over [{}, {}], f64, alg = {alg}, mode = {}",
        args.min_dim,
        args.max_dim,
        if model_mode {
            "K20c model"
        } else if sim_mode {
            "K20c kernel simulation"
        } else {
            "measured"
        }
    );

    let device = DeviceModel::default();
    let gpu_sim = GpuSim {
        // Sample rows so a 25000^2 cell simulates in milliseconds; the
        // access pattern is uniform across rows.
        row_sampling: 101,
        ..GpuSim::default()
    };
    let mut csv = Csv::new("alg,m,n,gbps");
    for which in ["c2r", "r2c"] {
        if alg != "both" && alg != which {
            continue;
        }
        let mut cells = vec![vec![0.0f64; axis.len()]; axis.len()];
        for (mi, &m) in axis.iter().enumerate() {
            for (ni, &n) in axis.iter().enumerate() {
                let t = if model_mode {
                    if which == "c2r" {
                        device.c2r_gbps(m, n, 8)
                    } else {
                        device.r2c_gbps(m, n, 8)
                    }
                } else if sim_mode {
                    if which == "c2r" {
                        gpu_sim.simulate_c2r(m, n, 8).effective_gbps
                    } else {
                        gpu_sim.simulate_r2c(m, n, 8).effective_gbps
                    }
                } else {
                    let mut buf = vec![0u64; m * n];
                    fill_u64(&mut buf, (m + n) as u64);
                    let secs = time_secs(|| {
                        if which == "c2r" {
                            ipt_parallel::c2r_parallel(&mut buf, m, n, &ParOptions::default())
                                .unwrap();
                        } else {
                            // R2C transposing the same m x n row-major input
                            // (Theorem 2: swapped parameters).
                            ipt_parallel::r2c_parallel(&mut buf, n, m, &ParOptions::default())
                                .unwrap();
                        }
                    });
                    throughput_gbps(m, n, 8, secs)
                };
                cells[mi][ni] = t;
                csv.row(format!("{which},{m},{n},{t:.4}"));
            }
        }
        print_heatmap(which, &axis, &cells);
        band_summary(which, &axis, &cells);
    }
    csv.finish(&args.csv);
    println!(
        "\npaper: C2R landscape has a high band at small n (Fig. 4); R2C at small m (Fig. 5);\n\
         combined heuristic (use C2R when m > n) beats either alone (§5.2)"
    );
}

fn print_heatmap(which: &str, axis: &[usize], cells: &[Vec<f64>]) {
    let max = cells
        .iter()
        .flatten()
        .cloned()
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    println!(
        "\n{which} GB/s heatmap (rows = m top-to-bottom, cols = n; darker = faster, max {max:.2}):"
    );
    print!("{:>8} ", "m\\n");
    for &n in axis {
        print!("{:>6}", n / 1000);
    }
    println!("  (n/1000)");
    for (mi, row) in cells.iter().enumerate() {
        print!("{:>8} ", axis[mi]);
        for &v in row {
            let s = shades[((v / max) * (shades.len() - 1) as f64).round() as usize];
            print!("{:>6}", s);
        }
        println!();
    }
}

fn band_summary(which: &str, axis: &[usize], cells: &[Vec<f64>]) {
    // Compare the edge band (smallest other-dimension) to the interior.
    let k = axis.len();
    let (band, interior): (Vec<f64>, Vec<f64>) = match which {
        "c2r" => (
            (0..k).map(|mi| cells[mi][0]).collect(),
            (0..k).flat_map(|mi| cells[mi][k / 2..].to_vec()).collect(),
        ),
        _ => (
            (0..k).map(|ni| cells[0][ni]).collect(),
            (k / 2..k).flat_map(|mi| cells[mi].clone()).collect(),
        ),
    };
    println!(
        "{which}: median {} band = {:.2} GB/s vs interior = {:.2} GB/s (band/interior = {:.2}x)",
        if which == "c2r" { "small-n" } else { "small-m" },
        median(&band),
        median(&interior),
        median(&band) / median(&interior).max(1e-12),
    );
}
