//! A minimal, dependency-free micro-benchmark harness with a
//! criterion-compatible surface.
//!
//! The four `benches/*.rs` files were written against criterion's API
//! (`benchmark_group`, `Throughput`, `BenchmarkId`, `b.iter`). To keep
//! the workspace buildable with zero external crates, this module
//! re-implements the slice of that API the benches use: calibrated
//! batches (doubling the iteration count until a batch crosses a target
//! wall-time), a fixed number of timed samples, and a median-based
//! report with optional throughput annotation.
//!
//! It is intentionally much simpler than criterion — no outlier
//! rejection, no regression against saved baselines, no plots. For
//! publication-grade numbers use the `src/bin/` harnesses, which follow
//! the paper's own measurement protocol.

use ipt_core::json::Json;
use std::cell::RefCell;
use std::fmt::Display;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Schema tag for the machine-readable micro-benchmark dump (see
/// [`Criterion`]; distinct from the suite-level `ipt-bench-report-v1`
/// emitted by `ipt-cli bench`).
pub const MICRO_SCHEMA: &str = "ipt-micro-report-v1";

/// Minimum wall-time per timed batch; batches shorter than this double
/// their iteration count so timer resolution stays negligible.
const TARGET_BATCH_NANOS: u128 = 5_000_000;

/// Hard cap on iterations per batch (guards against pathologically fast
/// closures overflowing the calibration loop).
const MAX_BATCH_ITERS: u64 = 1 << 30;

/// Workload size attached to a benchmark group, used to report
/// throughput alongside raw time per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration (reported as GB/s).
    Bytes(u64),
    /// Elements processed per iteration (reported as Melem/s).
    Elements(u64),
}

/// A benchmark identifier within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id from a single parameter value (criterion's
    /// `BenchmarkId::from_parameter`).
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId { id: p.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Top-level driver; hands out [`BenchmarkGroup`]s.
///
/// Besides the human-readable per-benchmark lines on stdout, the driver
/// can dump every result as JSON (schema [`MICRO_SCHEMA`]): set the
/// `IPT_BENCH_JSON` environment variable to a path and the file is
/// written when the `Criterion` drops, e.g.
/// `IPT_BENCH_JSON=BENCH_micro.json cargo bench --features criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Rc<RefCell<Vec<Json>>>,
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            sample_size: 20,
            records: Rc::clone(&self.records),
        }
    }
}

impl Drop for Criterion {
    /// Write the JSON dump if `IPT_BENCH_JSON` names a path.
    fn drop(&mut self) {
        let Ok(path) = std::env::var("IPT_BENCH_JSON") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let doc = Json::obj(vec![
            ("schema", Json::Str(MICRO_SCHEMA.to_string())),
            ("benchmarks", Json::Arr(self.records.borrow().clone())),
        ]);
        match std::fs::write(&path, doc.render()) {
            Ok(()) => eprintln!("wrote micro-benchmark JSON to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// A named set of benchmarks sharing a throughput annotation and sample
/// count.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    records: Rc<RefCell<Vec<Json>>>,
}

impl BenchmarkGroup {
    /// Annotate every benchmark in the group with a per-iteration
    /// workload size.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Set the number of timed samples per benchmark (minimum 5).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(5);
    }

    /// Measure one closure and print a one-line report.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F)
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        assert!(
            !b.samples_ns.is_empty(),
            "benchmark {}/{} never called Bencher::iter",
            self.name,
            id.id
        );
        b.samples_ns.sort_by(|a, b| a.total_cmp(b));
        let median = b.samples_ns[b.samples_ns.len() / 2];
        let min = b.samples_ns[0];
        let max = b.samples_ns[b.samples_ns.len() - 1];
        let extra = match self.throughput {
            Some(Throughput::Bytes(n)) => {
                format!("  {:8.3} GB/s", n as f64 / median)
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:8.2} Melem/s", n as f64 * 1e3 / median)
            }
            None => String::new(),
        };
        let mut record = vec![
            ("group".to_string(), Json::Str(self.name.clone())),
            ("id".to_string(), Json::Str(id.id.clone())),
            ("median_ns".to_string(), Json::Num(median)),
            ("min_ns".to_string(), Json::Num(min)),
            ("max_ns".to_string(), Json::Num(max)),
        ];
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                record.push(("gbps".to_string(), Json::Num(n as f64 / median)));
            }
            Some(Throughput::Elements(n)) => {
                record.push((
                    "melem_per_s".to_string(),
                    Json::Num(n as f64 * 1e3 / median),
                ));
            }
            None => {}
        }
        self.records.borrow_mut().push(Json::Obj(record));
        println!(
            "{}/{:<24} median {}  [{} .. {}]{}",
            self.name,
            id.id,
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
            extra
        );
    }

    /// End the group (criterion compatibility; nothing to flush here).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] does the timing.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Time `f`: calibrate a batch size whose wall-time crosses the
    /// 5 ms target, then record `sample_size` batches of per-iteration
    /// nanoseconds.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed().as_nanos();
            if dt >= TARGET_BATCH_NANOS || iters >= MAX_BATCH_ITERS {
                break;
            }
            // Jump close to the target in one step once we have a
            // signal; plain doubling otherwise.
            iters = match TARGET_BATCH_NANOS.checked_div(dt) {
                Some(factor) => (iters.saturating_mul(factor as u64 + 1)).min(MAX_BATCH_ITERS),
                None => iters.saturating_mul(2).min(MAX_BATCH_ITERS),
            };
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t0.elapsed().as_nanos();
            self.samples_ns.push(dt as f64 / iters as f64);
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The 10th, 50th and 90th percentile of a latency sample, in
/// nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (which must be non-empty).
    pub fn of(mut samples: Vec<f64>) -> Percentiles {
        assert!(!samples.is_empty(), "no samples");
        samples.sort_by(|a, b| a.total_cmp(b));
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Percentiles {
            p10: at(0.1),
            p50: at(0.5),
            p90: at(0.9),
        }
    }
}

impl Display for Percentiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p10 {}  p50 {}  p90 {}",
            fmt_ns(self.p10),
            fmt_ns(self.p50),
            fmt_ns(self.p90)
        )
    }
}

/// The pool's dispatch floor: `samples` timings of one empty dispatch —
/// a `par_chunks` of one index per worker of `pool`, with no work — each
/// taken after sleeping `idle` (zero: back-to-back, so the workers are
/// still spinning from the previous dispatch; a few hundred microseconds:
/// they have parked and must be woken).
pub fn empty_dispatch(pool: ipt_pool::Pool, samples: usize, idle: Duration) -> Percentiles {
    let width = pool.threads();
    let mut times = Vec::with_capacity(samples);
    // One untimed dispatch starts the workers.
    pool.par_chunks(0..width, 1, |r| {
        black_box(r);
    })
    .expect("an empty dispatch cannot panic");
    for _ in 0..samples {
        if !idle.is_zero() {
            std::thread::sleep(idle);
        }
        let t0 = Instant::now();
        pool.par_chunks(0..width, 1, |r| {
            black_box(r);
        })
        .expect("an empty dispatch cannot panic");
        times.push(t0.elapsed().as_nanos() as f64);
    }
    Percentiles::of(times)
}

/// Define a function `$name` that runs each benchmark function against a
/// fresh [`Criterion`] (criterion's `criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::micro::Criterion::default();
            $( $f(&mut c); )+
        }
    };
}

/// Define `main` running one or more groups (criterion's
/// `criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($name:path),+ $(,)?) => {
        fn main() {
            $( $name(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = Percentiles::of((1..=11).rev().map(f64::from).collect());
        assert_eq!((p.p10, p.p50, p.p90), (2.0, 6.0, 10.0));
    }

    #[test]
    fn empty_dispatch_times_every_sample() {
        let p = empty_dispatch(ipt_pool::Pool::new(2), 9, Duration::ZERO);
        assert!(0.0 < p.p10 && p.p10 <= p.p50 && p.p50 <= p.p90, "{p:?}");
        let idle = empty_dispatch(ipt_pool::Pool::new(2), 3, Duration::from_micros(300));
        assert!(idle.p10 > 0.0, "{idle:?}");
    }

    #[test]
    fn bencher_records_requested_samples() {
        let mut b = Bencher {
            sample_size: 7,
            samples_ns: Vec::new(),
        };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(b.samples_ns.len(), 7);
        assert!(b.samples_ns.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("micro-self-test");
        g.throughput(Throughput::Bytes(8));
        g.sample_size(5);
        let mut acc = 0u64;
        g.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                acc
            })
        });
        g.bench_function("str-id", |b| b.iter(|| 42u64));
        g.finish();
    }

    #[test]
    fn results_are_recorded_as_json_objects() {
        let mut c = Criterion::default();
        let records = Rc::clone(&c.records);
        let mut g = c.benchmark_group("json-record-test");
        g.throughput(Throughput::Bytes(1000));
        g.sample_size(5);
        g.bench_function("noop", |b| b.iter(|| 1u64));
        g.finish();
        let recs = records.borrow();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].get("group").unwrap().as_str(),
            Some("json-record-test")
        );
        assert_eq!(recs[0].get("id").unwrap().as_str(), Some("noop"));
        assert!(recs[0].get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
        assert!(recs[0].get("gbps").is_some());
    }

    #[test]
    fn id_conversions() {
        assert_eq!(BenchmarkId::from_parameter(7).id, "7");
        assert_eq!(BenchmarkId::from("x").id, "x");
        assert_eq!(BenchmarkId::from(String::from("y")).id, "y");
    }
}
