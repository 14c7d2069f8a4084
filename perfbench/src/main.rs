//! `perfbench` — the layer-ledger benchmark of the in-place transpose
//! library.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--cli PATH] [--work-dir DIR] [--rev STR]
//! ```
//!
//! Runs one seeded closed-loop workload (one request outstanding at a
//! time) at the pool's default width and prints, as its last stdout line,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run times each layer's public functions from here and reports the
//! per-layer metrics, writing a Chrome trace under `--work-dir`. See
//! `README.md` beside this crate for the workloads and metrics.

mod big;
mod cache_stream;
mod cli_file;
mod ledger;
mod pattern;
mod stats;
mod stream;
mod sys;
mod trace;

use ipt_core::json::Json;
use ledger::Ledger;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

/// Knobs that change what the library does; a run with any of them set
/// measures something else, so it is refused.
const FORBIDDEN_KNOBS: [&str; 7] = [
    "IPT_FAULT",
    "IPT_CHECK",
    "IPT_RETRY",
    "IPT_KERNEL",
    "IPT_CYCLE_GRAIN",
    "IPT_WATCHDOG_MS",
    "IPT_THREADS",
];

/// Preparations per run (allocate, fill, fault in, time memcpy);
/// `setup_s` is their median plus the one untimed warm-up call.
pub const SETUP_REPS: usize = 3;
/// Mean steal share of the kept calls below which a run may stop at
/// `--seconds`. Steal is CPU time the hypervisor gives to other guests;
/// on a shared 2-vCPU guest it slowed calls by up to 3x, far beyond the
/// effect of a change to the program.
pub const MAX_STEAL: f64 = 0.02;
/// Under steal, a run goes on for up to this many times `--seconds` to
/// find quieter calls to keep.
pub const STEAL_PATIENCE: f64 = 1.25;

/// The workloads, named as in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `transpose_parallel` on 10240 x 15360 `u64` (1200 MiB).
    DramSquare,
    /// `aos_to_soa` / `soa_to_aos` on 13,107,200 x 12 `u64` (1200 MiB).
    AosSkinny,
    /// A seeded stream of cache-resident single and batched transposes.
    CacheStream,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("dram-square", Workload::DramSquare),
        ("aos-skinny", Workload::AosSkinny),
        ("cache-stream", Workload::CacheStream),
    ];

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == s)
            .map(|&(_, w)| w)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .expect("every workload is listed in ALL")
            .0
    }
}

/// Parsed command line.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `ipt-cli` binary, for the CLI probe of the traced run.
    pub cli: Option<PathBuf>,
    /// Scratch directory for files and traces.
    pub work: PathBuf,
    /// Source revision to stamp.
    pub rev: String,
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut get = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{name}"))?;
        if get.insert(name.to_string(), value.clone()).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    let mut take = |k: &str| get.remove(k);
    let need = |v: Option<String>, k: &str| v.ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(&need(take("workload"), "workload")?)?;
    let seed = need(take("seed"), "seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need(take("seconds"), "seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match need(take("trace"), "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let cli = take("cli").map(PathBuf::from);
    let work = PathBuf::from(take("work-dir").unwrap_or_else(|| ".perfbench_work".into()));
    let rev = take("rev").unwrap_or_else(|| "unknown".into());
    if let Some(k) = get.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        cli,
        work,
        rev,
    })
}

/// Refuse a run whose environment changes the library's behaviour.
fn check_knobs() -> Result<(), String> {
    for k in FORBIDDEN_KNOBS {
        if std::env::var_os(k).is_some() {
            return Err(format!(
                "{k} is set; unset it (the benchmark runs with no IPT_* knob)"
            ));
        }
    }
    match std::env::var("IPT_CALIBRATION") {
        Ok(v) if v == "off" => {}
        Ok(v) => {
            return Err(format!(
                "IPT_CALIBRATION={v:?}; the benchmark runs with it off"
            ))
        }
        // Children (the CLI) inherit it, so set it for the whole tree.
        Err(_) => std::env::set_var("IPT_CALIBRATION", "off"),
    }
    let tier = ipt_core::kernels::active_tier();
    if tier != ipt_core::kernels::DecisionTier::Static {
        return Err(format!(
            "kernel dispatch tier is {}, expected static",
            tier.name()
        ));
    }
    Ok(())
}

/// Calls attempted and failed (`Err`, panic or wrong output).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one call.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Run `f`, turning a panic into `Err`.
pub fn attempt(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_string()))
}

/// What an untraced run measured.
pub struct EndToEnd {
    /// Call outcomes.
    pub tally: Tally,
    /// Latencies of the kept calls, ms.
    pub call_ms: Vec<f64>,
    /// Eq. 37 throughput, GB/s.
    pub gbps: f64,
    /// Same-run memcpy on a buffer of the workload's size, GB/s, timed
    /// between the calls.
    pub memcpy_gbps: f64,
    /// Peak resident MiB above the benchmark's own buffers during the
    /// timed calls.
    pub peak_aux_mib: f64,
    /// Set-up wall time, s.
    pub setup_s: f64,
}

/// Metrics as (name, value, unit), in `BENCHMARK.json` order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

impl EndToEnd {
    /// The bounded end-to-end metrics, in `BENCHMARK.json` order.
    fn metrics(&self) -> Metrics {
        vec![
            ("roofline_frac", self.gbps / self.memcpy_gbps, "fraction"),
            ("peak_aux_mib", self.peak_aux_mib, "MiB"),
            ("setup_s", self.setup_s, "s"),
        ]
    }

    /// Throughput and latency, printed with every run but not bounded:
    /// on a shared host they follow other guests' memory traffic (see
    /// `README.md`); the traced run reports them as per-layer metrics.
    fn raw(&self) -> Metrics {
        vec![
            ("gbps", self.gbps, "GB/s"),
            ("call_ms_p50", stats::median(&self.call_ms), "ms"),
            ("call_ms_p99", stats::percentile(&self.call_ms, 99), "ms"),
            ("memcpy_gbps", self.memcpy_gbps, "GB/s"),
        ]
    }
}

/// Sort `items` by `steal` and return the `keep` least-stolen ones with
/// their mean steal share.
pub fn least_stolen<W>(items: &mut [W], steal: impl Fn(&W) -> f64, keep: usize) -> (&[W], f64) {
    items.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let kept = &items[..keep.min(items.len())];
    let mean = kept.iter().map(&steal).sum::<f64>() / kept.len().max(1) as f64;
    (kept, mean)
}

/// Two consecutive calls, one in each direction, for the workloads with
/// few, long calls.
#[derive(Default)]
pub struct Pair {
    /// The two call times, ms.
    pub call_ms: Vec<f64>,
    /// Memcpy reference times taken before each call, s.
    pub copies: Vec<f64>,
    /// Stolen share of CPU time during the pair.
    pub steal: f64,
}

/// Run `call` in pairs until `--seconds` have passed and `keep` pairs
/// ran with little steal (or the patience is spent); return the `keep`
/// least-stolen pairs.
pub fn run_pairs(
    ctx: &Ctx,
    keep: usize,
    mut call: impl FnMut(&mut Pair) -> Result<(), String>,
) -> Result<Vec<Pair>, String> {
    let t0 = std::time::Instant::now();
    let mut pairs = Vec::new();
    loop {
        let steal = sys::Steal::start();
        let mut p = Pair::default();
        call(&mut p)?;
        call(&mut p)?;
        p.steal = steal.share();
        pairs.push(p);
        let t = secs(t0);
        if pairs.len() >= keep
            && t >= ctx.seconds
            && (least_stolen(&mut pairs, |p| p.steal, keep).1 <= MAX_STEAL
                || t >= STEAL_PATIENCE * ctx.seconds)
        {
            break;
        }
    }
    let all = pairs.len();
    let (_, steal) = least_stolen(&mut pairs, |p| p.steal, keep);
    pairs.truncate(keep);
    println!("pairs {all}, kept the {keep} least-stolen (mean steal share {steal:.4})");
    Ok(pairs)
}

/// Host and build facts stamped into every result.
fn stamp(ctx: &Ctx) -> Json {
    let num = |x: u64| Json::Num(x as f64);
    Json::obj(vec![
        ("workload", Json::Str(ctx.workload.name().into())),
        ("seed", num(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("nproc", num(sys::nproc() as u64)),
        ("pool_threads", num(ipt_pool::num_threads() as u64)),
        ("llc_bytes", sys::llc_bytes().map_or(Json::Null, num)),
        (
            "kernel_tier",
            Json::Str(ipt_core::kernels::active_tier().name().into()),
        ),
        ("rev", Json::Str(ctx.rev.clone())),
    ])
}

/// One JSON line: `render` minus its indentation.
fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim).collect()
}

fn run(ctx: &Ctx) -> Result<(Tally, Metrics), String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    if !ctx.trace {
        let e2e = match ctx.workload {
            Workload::DramSquare | Workload::AosSkinny => big::measure(ctx)?,
            Workload::CacheStream => cache_stream::measure(ctx)?,
        };
        let failed_frac = e2e.tally.failed as f64 / e2e.tally.attempted.max(1) as f64;
        let calls = e2e.call_ms.len();
        println!(
            "kept calls {calls} (p99 {}resolved), failed_frac {failed_frac} fraction",
            if stats::resolves(calls, 99) { "" } else { "un" }
        );
        for (name, v, unit) in e2e.raw() {
            println!("{name:<36} {v:>14.6} {unit} (not bounded)");
        }
        return Ok((e2e.tally, e2e.metrics()));
    }
    let mut l = Ledger::default();
    match ctx.workload {
        Workload::DramSquare | Workload::AosSkinny => big::trace(ctx, &mut l)?,
        Workload::CacheStream => cache_stream::trace(ctx, &mut l)?,
    }
    l.probe_missing(ctx.cli.as_deref(), &ctx.work);
    let metrics = l.metrics();
    let path = ctx
        .work
        .join(format!("trace-{}-{}.json", ctx.workload.name(), ctx.seed));
    let ledger = Json::Obj(
        metrics
            .iter()
            .map(|(n, v, _)| (n.to_string(), Json::Num(*v)))
            .collect(),
    );
    let meta = Json::obj(vec![("env", stamp(ctx)), ("ledger", ledger)]);
    l.write_trace(&path, meta)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace {}", path.display());
    Ok((l.tally, metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args).and_then(|c| check_knobs().map(|()| c)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("env {}", one_line(&stamp(&ctx)));
    let (tally, metrics) = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload.name());
            return ExitCode::from(1);
        }
    };
    if let Some((name, v, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number ({v})");
        return ExitCode::from(1);
    }
    for (name, v, unit) in &metrics {
        println!("{name:<36} {v:>14.6} {unit}");
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        let m = Json::obj(vec![
                            ("value", Json::Num(*v)),
                            ("unit", Json::Str(u.to_string())),
                        ]);
                        (n.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}

/// The same-run memcpy reference: a faulted-in destination as large as
/// the workload's buffer. Copies run on one thread (`copy_from_slice`).
pub struct Memcpy<T> {
    dst: Vec<T>,
}

impl<T: Copy + Default> Memcpy<T> {
    /// Allocate the destination and fault it in with an untimed copy.
    pub fn new(src: &[T]) -> Memcpy<T> {
        let mut dst = vec![T::default(); src.len()];
        dst.copy_from_slice(src);
        Memcpy { dst }
    }

    /// Seconds of one timed copy of `src`.
    pub fn time(&mut self, src: &[T]) -> f64 {
        let t0 = std::time::Instant::now();
        self.dst.copy_from_slice(std::hint::black_box(src));
        std::hint::black_box(&mut self.dst);
        secs(t0)
    }

    /// Bytes of the destination.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.dst.as_slice())
    }

    /// GB/s in Eq. 37 units (bytes read plus written) over the median
    /// of `times`.
    pub fn gbps(&self, times: &[f64]) -> f64 {
        2.0 * self.bytes() as f64 / stats::median(times) / 1e9
    }
}

/// Seconds since `t0`.
pub fn secs(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
