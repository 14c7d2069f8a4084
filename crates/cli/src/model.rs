//! `ipt model` — predicted-vs-measured phase attribution for one shape.
//!
//! Prints the call's [`Plan`] — the explain view of one shape — then
//! runs the parallel decomposed transpose on a synthetic matrix, collects
//! the per-phase wall time and payload bytes from `ipt_pool::stats`, asks
//! `memsim::phases` what the three-regime bandwidth model *predicts* each
//! phase should cost, and prints the two share distributions side by side
//! with the divergence metric (`memsim::phases::PhaseBreakdown`). With
//! `--max-divergence` the command doubles as the CI smoke gate for the
//! model (`scripts/ci.sh`): exit 3 when model and measurement disagree
//! more than the threshold. See `MODEL.md` for the formulas.

use std::process::ExitCode;

use ipt_bench::report::{ModelBreak, ModelPhase};
use ipt_core::{Algorithm, Layout};
use ipt_parallel::{c2r_parallel, r2c_parallel, ParOptions, Plan};
use memsim::model::DeviceModel;
use memsim::phases::{self, PhaseBreakdown, PhasePrediction};

pub const MODEL_USAGE: &str = "\
ipt model — validate the phase-attributed cost model on one shape

USAGE:
  ipt model --rows R --cols C --elem N
            [--algorithm c2r|r2c|auto] [--samples K] [--threads N]
            [--device cpu|k20c] [--max-divergence X]

Transposes a synthetic R x C matrix of N-byte elements (N in 1, 2, 4,
8, 16) K times (default 24) with the parallel decomposed algorithm,
collects per-phase wall time and payload bytes from ipt_pool::stats,
and prints it next to the per-phase traffic share memsim::phases
predicts for the same shape. --algorithm auto (default) picks the
direction the model rates faster. --device selects the prediction's
parameter preset: cpu (this repo's 1-core reference host, default) or
k20c (the paper's Tesla K20c). The run pins the pool to 1 thread unless
--threads overrides — the committed model presets describe single-core
traffic. With --max-divergence X the command exits 3 when the total
variation distance between predicted and measured shares exceeds X
(the CI smoke gate); without it the divergence is informational.
Above the table it prints the call's plan: the direction and its
row-major view, then the route: the element path with column-group
width w and window height h, then the gcd and whether the rotation
runs, and the row-shuffle kernel, which the shape alone decides; or
tiled with tile side L and P x Q tiles, then the kernel that
transposes its tiles (avx2 4 x 4 for 8-byte elements on an AVX2 CPU,
else scalar 16 x 16 sub-tile pairs) and the page permutation's cycles,
longest cycle and segments. A shape on the tiled route (a 4 KiB page of
elements divides both sides) prints its measured phases,
chunk_transpose and page_permute, each marked not modelled;
--max-divergence refuses such a shape (exit 2).";

struct ModelOpts {
    rows: usize,
    cols: usize,
    elem: usize,
    algorithm: String,
    samples: usize,
    threads: Option<usize>,
    device: String,
    max_divergence: Option<f64>,
}

fn parse(args: &[String]) -> Result<ModelOpts, String> {
    let mut rows = None;
    let mut cols = None;
    let mut elem = None;
    let mut o = ModelOpts {
        rows: 0,
        cols: 0,
        elem: 0,
        algorithm: "auto".to_string(),
        samples: 24,
        threads: None,
        device: "cpu".to_string(),
        max_divergence: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let count = |name: &str| -> Result<usize, String> {
            match value.parse::<usize>() {
                Ok(x) if x > 0 => Ok(x),
                _ => Err(format!(
                    "invalid value {value:?} for {name} (expected a positive integer)"
                )),
            }
        };
        match flag.as_str() {
            "--rows" => rows = Some(count("--rows")?),
            "--cols" => cols = Some(count("--cols")?),
            "--elem" => elem = Some(count("--elem")?),
            "--algorithm" => o.algorithm = value.clone(),
            "--samples" => o.samples = count("--samples")?,
            "--threads" => o.threads = Some(count("--threads")?),
            "--device" => o.device = value.clone(),
            "--max-divergence" => {
                let x: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid value {value:?} for --max-divergence"))?;
                if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                    return Err(format!("--max-divergence must be in [0, 1] (got {value})"));
                }
                o.max_divergence = Some(x);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    o.rows = rows.ok_or("missing required --rows")?;
    o.cols = cols.ok_or("missing required --cols")?;
    o.elem = elem.ok_or("missing required --elem")?;
    if o.rows < 2 || o.cols < 2 {
        return Err(
            "--rows and --cols must be at least 2 (a single row or column \
                    transposes without running any decomposition phase)"
                .to_string(),
        );
    }
    if !matches!(o.elem, 1 | 2 | 4 | 8 | 16) {
        return Err(format!(
            "--elem must be 1, 2, 4, 8 or 16 bytes (got {})",
            o.elem
        ));
    }
    if !matches!(o.algorithm.as_str(), "c2r" | "r2c" | "auto") {
        return Err(format!(
            "--algorithm must be c2r, r2c or auto (got {})",
            o.algorithm
        ));
    }
    if !matches!(o.device.as_str(), "cpu" | "k20c") {
        return Err(format!("--device must be cpu or k20c (got {})", o.device));
    }
    Ok(o)
}

/// The plan of the call `ipt model` makes for `alg`:
/// `c2r_parallel(_, m, n, _)`, or `r2c_parallel` when `alg` starts with
/// `r2c`, on `elem`-byte elements.
fn plan_for(alg: &str, m: usize, n: usize, elem: usize) -> Plan {
    let (rows, cols, algorithm) = if alg.starts_with("r2c") {
        (n, m, Algorithm::R2c)
    } else {
        (m, n, Algorithm::C2r)
    };
    let len = ipt_core::shape_len(m, n);
    let core = ipt_core::Plan::new(len, rows, cols, Layout::RowMajor, algorithm);
    Plan::new(core, elem, &ParOptions::default())
}

/// The prediction device preset for a `--device` / stamp name.
pub fn device_preset(name: &str) -> DeviceModel {
    match name {
        "k20c" => DeviceModel::default(),
        _ => DeviceModel::reference_cpu(),
    }
}

/// The model's per-phase prediction for a bench algorithm label, keyed
/// by its direction prefix (`c2r*` / `r2c*`); `None` for algorithms
/// that are not whole decomposed transposes (kernel isolates, AoS
/// specializations).
pub fn predict_for(
    d: &DeviceModel,
    alg: &str,
    m: usize,
    n: usize,
    elem: usize,
) -> Option<PhasePrediction> {
    if m < 2 || n < 2 {
        return None;
    }
    if alg.starts_with("c2r") {
        Some(phases::predict_c2r(d, m, n, elem))
    } else if alg.starts_with("r2c") {
        Some(phases::predict_r2c(d, m, n, elem))
    } else {
        None
    }
}

/// Build the bench-report model stamp for one measured entry: predicted
/// shares from `device`'s preset next to the measured per-phase wall
/// times. `None` when the algorithm has no model, when the shape takes
/// the tiled route (which the model does not describe), or when nothing
/// was measured.
pub fn model_stamp(
    device: &str,
    alg: &str,
    m: usize,
    n: usize,
    elem: usize,
    measured_nanos: &[(&str, u64)],
) -> Option<ModelBreak> {
    if measured_nanos.iter().all(|&(_, ns)| ns == 0)
        || plan_for(alg, m, n, elem).tile_side().is_some()
    {
        return None;
    }
    let pred = predict_for(&device_preset(device), alg, m, n, elem)?;
    let b = PhaseBreakdown::new(&pred, measured_nanos);
    Some(ModelBreak {
        device: device.to_string(),
        divergence: b.divergence,
        rank_agrees: b.rank_agrees,
        phases: b
            .phases
            .into_iter()
            .map(|p| ModelPhase {
                name: p.name,
                predicted: p.predicted,
                measured: p.measured,
            })
            .collect(),
    })
}

/// One measured phase: name, wall nanoseconds, payload bytes.
type MeasuredPhase = (&'static str, u64, u64);

/// Run the chosen transpose `samples` times over a fresh `m x n` matrix
/// of `T` elements and return the per-phase stats delta, keeping only
/// phases that reported payload traffic (a no-op rotation records a
/// timer call but no bytes, and must not dilute the comparison). The
/// decomposition's phases come first, in C2R order, then the tiled
/// route's.
fn run_measured<T: Copy + Send + Sync + Default + 'static>(
    alg: &str,
    m: usize,
    n: usize,
    samples: usize,
) -> Vec<MeasuredPhase> {
    let opts = ParOptions::default();
    let mut buf = vec![T::default(); m * n];
    let run = |buf: &mut [T]| {
        match alg {
            "c2r" => c2r_parallel(buf, m, n, &opts),
            _ => r2c_parallel(buf, m, n, &opts),
        }
        .unwrap_or_else(|e| {
            eprintln!("ipt model: {e}");
            std::process::exit(4);
        })
    };
    run(&mut buf); // warm-up: page in the buffer, size the pool scratch
    let before = ipt_pool::stats::snapshot();
    for _ in 0..samples {
        run(&mut buf);
    }
    let delta = ipt_pool::stats::snapshot().delta_since(&before);
    let tiled = [
        ipt_parallel::phases::CHUNK_TRANSPOSE,
        ipt_parallel::phases::PAGE_PERMUTE,
    ];
    ipt_parallel::phases::ALL
        .iter()
        .chain(&tiled)
        .filter_map(|&name| {
            delta
                .phase(name)
                .filter(|p| p.bytes > 0)
                .map(|p| (name, p.nanos, p.bytes))
        })
        .collect()
}

/// Entry point for the `model` subcommand (exit 0 ok, 2 usage error, 3
/// divergence above `--max-divergence`).
pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            println!("{MODEL_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{MODEL_USAGE}");
            return ExitCode::from(2);
        }
    };
    ipt_pool::set_num_threads(opts.threads.unwrap_or(1));
    let (m, n, elem) = (opts.rows, opts.cols, opts.elem);
    let d = device_preset(&opts.device);
    let alg = match opts.algorithm.as_str() {
        "auto" => {
            if d.c2r_gbps(m, n, elem) >= d.r2c_gbps(m, n, elem) {
                "c2r"
            } else {
                "r2c"
            }
        }
        a => a,
    };
    let plan = plan_for(alg, m, n, elem);
    if opts.max_divergence.is_some() && plan.tile_side().is_some() {
        eprintln!(
            "error: {m}x{n} of {elem}-byte elements takes the tiled route, which the \
             model does not describe; --max-divergence cannot gate it"
        );
        return ExitCode::from(2);
    }
    let measured = match elem {
        1 => run_measured::<u8>(alg, m, n, opts.samples),
        2 => run_measured::<u16>(alg, m, n, opts.samples),
        4 => run_measured::<u32>(alg, m, n, opts.samples),
        16 => run_measured::<u128>(alg, m, n, opts.samples),
        _ => run_measured::<u64>(alg, m, n, opts.samples),
    };
    println!(
        "model {alg} {m}x{n} elem {elem} (device {}, {} samples, {} thread(s))",
        opts.device,
        opts.samples,
        ipt_pool::num_threads()
    );
    for line in plan.to_string().lines() {
        println!("  {line}");
    }
    if plan.tile_side().is_some() {
        print_tiled(&measured);
        return ExitCode::SUCCESS;
    }
    let pred = predict_for(&d, alg, m, n, elem).expect("c2r/r2c always have a prediction");
    let nanos_only: Vec<(&str, u64)> = measured.iter().map(|&(p, ns, _)| (p, ns)).collect();
    let breakdown = PhaseBreakdown::new(&pred, &nanos_only);
    let w = breakdown
        .phases
        .iter()
        .fold("phase".len(), |w, p| w.max(p.name.len()));
    println!();
    println!(
        "  {:<w$} {:>9} {:>9} {:>7} {:>11} {:>14}",
        "phase", "predicted", "measured", "|diff|", "meas GB/s", "txns/transpose"
    );
    for p in &breakdown.phases {
        let gbps = measured
            .iter()
            .find(|&&(name, _, _)| name == p.name)
            .and_then(|&(_, ns, bytes)| (ns > 0).then(|| bytes as f64 / (ns as f64 / 1e9) / 1e9));
        let txns = pred.phase(&p.name).map(|t| t.transactions);
        println!(
            "  {:<w$} {:>8.1}% {:>8.1}% {:>6.1}% {:>11} {:>14}",
            p.name,
            p.predicted * 100.0,
            p.measured * 100.0,
            (p.predicted - p.measured).abs() * 100.0,
            gbps.map_or("-".to_string(), |g| format!("{g:.3}")),
            txns.map_or("-".to_string(), |t| t.to_string()),
        );
    }
    let total_nanos: u64 = nanos_only.iter().map(|&(_, ns)| ns).sum();
    let matrix_bytes = (m * n * elem) as f64;
    if total_nanos > 0 {
        println!();
        println!(
            "  effective: predicted {:.3} GB/s, measured {:.3} GB/s (Eq. 37)",
            pred.effective_gbps(),
            2.0 * matrix_bytes * opts.samples as f64 / (total_nanos as f64 / 1e9) / 1e9
        );
    }
    println!(
        "  divergence {:.3} (total variation), rank agreement: {}",
        breakdown.divergence,
        if breakdown.rank_agrees { "yes" } else { "no" }
    );
    if let Some(max) = opts.max_divergence {
        if breakdown.divergence > max {
            eprintln!(
                "model gate FAILED: divergence {:.3} exceeds --max-divergence {max}",
                breakdown.divergence
            );
            return ExitCode::from(3);
        }
        println!("  gate ok: divergence within --max-divergence {max}");
    }
    ExitCode::SUCCESS
}

/// The measured table of a shape on the tiled route. `memsim::phases`
/// predicts the element path on `m x n`, which this route does not run:
/// its tile and page passes are not in the model. So every row is
/// marked not modelled, and no share or divergence is compared.
fn print_tiled(measured: &[MeasuredPhase]) {
    println!("  the model predicts the element path only: no phase below is modelled");
    let w = measured.iter().fold("phase".len(), |w, p| w.max(p.0.len()));
    println!();
    println!(
        "  {:<w$} {:>13} {:>9} {:>11}",
        "phase", "predicted", "measured", "meas GB/s"
    );
    let total: u64 = measured.iter().map(|&(_, ns, _)| ns).sum();
    for &(name, ns, bytes) in measured {
        println!(
            "  {:<w$} {:>13} {:>8.1}% {:>11.3}",
            name,
            "not modelled",
            ns as f64 / total.max(1) as f64 * 100.0,
            bytes as f64 / (ns.max(1) as f64 / 1e9) / 1e9,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_requires_shape_and_validates_choices() {
        assert!(parse(&args(&["--rows", "8"])).is_err());
        assert!(parse(&args(&["--rows", "8", "--cols", "8", "--elem", "3"])).is_err());
        assert!(parse(&args(&["--rows", "1", "--cols", "8", "--elem", "8"])).is_err());
        assert!(parse(&args(&[
            "--rows", "8", "--cols", "8", "--elem", "8", "--device", "tpu"
        ]))
        .is_err());
        assert!(parse(&args(&[
            "--rows",
            "8",
            "--cols",
            "8",
            "--elem",
            "8",
            "--max-divergence",
            "1.5"
        ]))
        .is_err());
        let o = parse(&args(&["--rows", "192", "--cols", "256", "--elem", "8"])).unwrap();
        assert_eq!((o.rows, o.cols, o.elem), (192, 256, 8));
        assert_eq!((o.algorithm.as_str(), o.device.as_str()), ("auto", "cpu"));
        assert_eq!(o.samples, 24);
        assert!(o.max_divergence.is_none());
    }

    #[test]
    fn predict_for_keys_on_direction_prefix() {
        let d = DeviceModel::reference_cpu();
        assert!(predict_for(&d, "c2r_parallel", 192, 256, 8).is_some());
        assert!(predict_for(&d, "r2c_batched_b16", 192, 256, 8).is_some());
        assert!(predict_for(&d, "row_shuffle_scalar", 192, 256, 8).is_none());
        assert!(predict_for(&d, "aos_to_soa", 192, 256, 8).is_none());
        assert!(predict_for(&d, "c2r", 1, 256, 8).is_none());
    }

    #[test]
    fn model_stamp_pairs_predicted_and_measured_shares() {
        let measured = [("row_shuffle", 400u64), ("col_shuffle", 600)];
        let s = model_stamp("cpu", "c2r", 257, 131, 8, &measured).unwrap();
        assert_eq!(s.device, "cpu");
        assert_eq!(s.phases.len(), 2);
        let total: f64 = s.phases.iter().map(|p| p.predicted).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(s.divergence >= 0.0 && s.divergence <= 1.0);
        // No measurement, no stamp.
        assert!(model_stamp("cpu", "c2r", 257, 131, 8, &[]).is_none());
        // No model for a non-transpose algorithm.
        assert!(model_stamp("cpu", "row_shuffle_auto", 257, 131, 8, &measured).is_none());
    }

    #[test]
    fn measured_phases_follow_the_bytes_accounting() {
        ipt_pool::set_num_threads(1);
        // Coprime: the pre-rotation is a no-op and must not appear.
        let phases = run_measured::<u64>("c2r", 61, 48, 2);
        let names: Vec<&str> = phases.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, ["row_shuffle", "col_shuffle"], "{phases:?}");
        for &(name, _, bytes) in &phases {
            assert_eq!(bytes, 2 * 2 * (61 * 48 * 8) as u64, "{name}");
        }
        // gcd > 1: all three C2R phases report traffic.
        let phases = run_measured::<u32>("r2c", 60, 48, 1);
        let names: Vec<&str> = phases.iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, ["row_shuffle", "col_shuffle", "post_rotate"]);
    }
}
