//! The traced run's layer ledger: spans around each layer's public
//! functions, pool-counter deltas around the same calls, the layer
//! probes, and the per-layer metrics computed from them.
//!
//! A layer's metrics come from the workload's own traced calls when those
//! calls enter the layer. Layers a workload never enters are timed on a
//! small fixed probe instead (see [`Ledger::probe_missing`]), so every
//! traced run reports every layer.

use crate::pattern::{self, Elem};
use crate::trace::{Tracer, CALL, PROBE};
use crate::{attempt, sys, Tally};
use ipt_core::index::C2rParams;
use ipt_core::json::Json;
use ipt_core::kernels::{self, ShuffleDirection};
use ipt_core::{permute, Layout};
use ipt_parallel::{batched, cache_aware, rows, ParOptions};
use ipt_pool::stats::PoolStats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Pool counters summed over a set of calls.
#[derive(Debug, Default, Clone)]
pub struct PoolTally {
    /// Calls covered.
    pub calls: u64,
    /// Parallel-loop dispatches (every dispatch has a part 0).
    pub dispatches: u64,
    /// Work items dispatched.
    pub chunks: u64,
    /// Scratch requests that grew an allocation.
    pub scratch_allocs: u64,
    /// Worker panics contained.
    pub panics: u64,
    /// Recovery retries.
    pub retries: u64,
    /// Row-shuffle kernel hits by name.
    pub kernels: BTreeMap<&'static str, u64>,
    /// Work items per worker id.
    pub worker_chunks: BTreeMap<usize, u64>,
    /// Empty-dispatch floor summed over the calls, in microseconds.
    pub floor_us: f64,
}

impl PoolTally {
    fn add(&mut self, d: &PoolStats) {
        self.calls += 1;
        self.dispatches += d.worker(0).map_or(0, |w| w.tasks);
        self.chunks += d.chunks;
        self.scratch_allocs += d.scratch_allocs;
        self.panics += d.panics_contained;
        self.retries += d.retries_attempted;
        for k in &d.kernels {
            *self.kernels.entry(k.name).or_default() += k.hits;
        }
        for w in &d.workers {
            *self.worker_chunks.entry(w.worker).or_default() += w.chunks;
        }
    }
}

/// A row-shuffle pass seen in a traced call: shape, direction, element.
type RowPass = (usize, usize, ShuffleDirection, usize);

/// Everything a traced run records.
#[derive(Default)]
pub struct Ledger {
    /// The spans.
    pub t: Tracer,
    /// Outcomes of every call and probe.
    pub tally: Tally,
    /// Untraced call times (ms) of the calls the traced ones are
    /// compared against.
    pub untraced_ms: Vec<f64>,
    /// Payload bytes of each untraced call.
    pub untraced_bytes: u64,
    /// Pool counters over the workload's traced calls.
    pub calls: PoolTally,
    /// Pool counters over the probe transposes.
    pub probes: PoolTally,
    /// One-thread vs pool-width call time: (one-thread ms, pool ms).
    pub scaling: Option<(f64, f64)>,
    /// Same-run reference bandwidths, GB/s (Eq. 37 units).
    pub memcpy_gbps: f64,
    /// Out-of-place transpose bandwidth, GB/s.
    pub oop_gbps: f64,
    /// Row-shuffle passes of the traced calls, for the kernel probe.
    row_passes: Vec<RowPass>,
    /// Kernel probe totals: (bytes, nanoseconds).
    kernel: (u64, u64),
    /// Row-pass shape (`m` rows of `n`) of the call in flight, for its
    /// dispatch floor.
    pub floor_shape: Option<(usize, usize)>,
    next_req: u64,
}

/// Bytes one pass over `len` elements of `T` moves: a read and a write.
pub fn pass_bytes<T>(len: usize) -> u64 {
    2 * (len * std::mem::size_of::<T>()) as u64
}

impl Ledger {
    /// A fresh request id.
    fn req(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    /// Run one traced call: a root span named `root` of category `cat`,
    /// pool counters recorded around it into the call or probe tally.
    /// Returns the call's outcome.
    pub fn traced_call(
        &mut self,
        root: &'static str,
        cat: &'static str,
        f: impl FnOnce(&mut Ledger, u64) -> Result<(), String>,
    ) -> Result<(), String> {
        let req = self.req();
        let before = ipt_pool::stats::snapshot();
        let id = self.t.begin(root, cat, req);
        let r = attempt(|| f(self, req));
        self.t.close_to(id);
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        let tally = if cat == CALL {
            &mut self.calls
        } else {
            &mut self.probes
        };
        tally.add(&d);
        // The dispatch floor is measured after the root span closed, so
        // it never counts as call time.
        if let Some((m, n)) = self.floor_shape.take() {
            let dispatches = d.worker(0).map_or(0, |w| w.tasks);
            tally.floor_us += dispatches as f64 * dispatch_floor_us(m, n);
        }
        r
    }

    /// `transpose_parallel(data, rows, cols, RowMajor, default)` spelled
    /// out as its layer calls, in the order `c2r_parallel` /
    /// `r2c_parallel` make them, each inside a span.
    pub fn transpose<T: Elem>(
        &mut self,
        req: u64,
        data: &mut [T],
        rows: usize,
        cols: usize,
    ) -> Result<(), String> {
        if rows <= 1 || cols <= 1 {
            return Ok(());
        }
        let o = ParOptions::default();
        let (w, h) = (o.group_width::<T>(), o.block_rows);
        let bytes = pass_bytes::<T>(data.len());
        let t = &mut self.t;
        let err = |e: ipt_pool::PoolError| e.to_string();
        let (m, n, dir) = if rows > cols {
            let p = C2rParams::new(rows, cols);
            let rot = if p.coprime() { 0 } else { bytes };
            t.span("cache_aware.prerotate", req, rot, || {
                cache_aware::prerotate(data, &p, w, h)
            })
            .map_err(err)?;
            t.span("rows.row_shuffle_parallel", req, bytes, || {
                rows::row_shuffle_parallel(data, &p)
            })
            .map_err(err)?;
            t.span("cache_aware.col_shuffle_fused", req, bytes, || {
                cache_aware::col_shuffle_fused(data, &p, w, h)
            })
            .map_err(err)?;
            (rows, cols, ShuffleDirection::Inverse)
        } else {
            let p = C2rParams::new(cols, rows);
            let rot = if p.coprime() { 0 } else { bytes };
            t.span("cache_aware.col_shuffle_fused_inverse", req, bytes, || {
                cache_aware::col_shuffle_fused_inverse(data, &p, w, h)
            })
            .map_err(err)?;
            t.span("rows.row_shuffle_forward_parallel", req, bytes, || {
                rows::row_shuffle_forward_parallel(data, &p)
            })
            .map_err(err)?;
            t.span("cache_aware.postrotate_inverse", req, rot, || {
                cache_aware::postrotate_inverse(data, &p, w, h)
            })
            .map_err(err)?;
            (cols, rows, ShuffleDirection::Forward)
        };
        let pass = (m, n, dir, T::BYTES);
        if !self.row_passes.contains(&pass) && self.row_passes.len() < 32 {
            self.row_passes.push(pass);
        }
        self.floor_shape = Some((m, n));
        Ok(())
    }

    /// Time `RowShuffleKernel::apply_row` of the auto-selected kernel on
    /// one thread over the row passes the traced calls made (up to
    /// `max_rows` rows each, one row buffer, so the kernel runs from
    /// cache).
    pub fn kernel_probe(&mut self, max_rows: usize) {
        for &(m, n, dir, elem) in &self.row_passes.clone() {
            let (bytes, ns) = if elem == 8 {
                apply_rows::<u64>(m, n, dir, max_rows)
            } else {
                apply_rows::<u32>(m, n, dir, max_rows)
            };
            self.kernel.0 += bytes;
            self.kernel.1 += ns;
        }
    }

    /// Close the probes' gaps: run a fixed small probe for each layer the
    /// workload's traced calls never entered.
    pub fn probe_missing(&mut self, cli: Option<&Path>, work: &Path) {
        let has = |l: &Ledger, prefix: &str| {
            l.t.spans()
                .iter()
                .any(|s| s.cat == CALL && s.name.starts_with(prefix))
        };
        if !has(self, "cache_aware.") || self.calls.dispatches == 0 || self.kernels_hit() == 0 {
            self.probe_transpose();
        }
        if !has(self, "skinny.") {
            self.probe_skinny();
        }
        if !has(self, "batched.") {
            self.probe_batched(&PROBE_HEADS);
        }
        if !has(self, "cli.") {
            match cli {
                Some(cli) => self.probe_cli(cli, work),
                None => self.tally.record(false),
            }
        }
    }

    fn kernels_hit(&self) -> u64 {
        self.calls.kernels.values().sum()
    }

    /// Probe: a 1024 x 1536 `u64` transpose and its inverse (gcd 512, so
    /// all four passes run), traced by layer, plus a one-thread replay
    /// when the workload gave no scaling figure.
    fn probe_transpose(&mut self) {
        let (r, c) = (1024usize, 1536usize);
        let key = pattern::key(0, 0x70);
        let mut buf = vec![0u64; r * c];
        pattern::fill(&mut buf, key);
        for (rr, cc, back) in [(r, c, false), (c, r, true)] {
            let ok = self
                .traced_call("probe.transpose", PROBE, |l, req| {
                    l.transpose(req, &mut buf, rr, cc)
                })
                .is_ok();
            self.tally
                .record(ok && pattern::verify(&buf, r, c, !back, key));
        }
        if self.kernel.1 == 0 {
            self.kernel_probe(1024);
        }
        if self.scaling.is_none() {
            let time = |buf: &mut Vec<u64>| {
                let t0 = Instant::now();
                let ok = ipt_parallel::transpose_parallel(
                    buf,
                    r,
                    c,
                    Layout::RowMajor,
                    &ParOptions::default(),
                )
                .is_ok()
                    && ipt_parallel::transpose_parallel(
                        buf,
                        c,
                        r,
                        Layout::RowMajor,
                        &ParOptions::default(),
                    )
                    .is_ok();
                (t0.elapsed().as_secs_f64() * 1e3, ok)
            };
            let (tn, ok_n) = time(&mut buf);
            ipt_pool::set_num_threads(1);
            let (t1, ok_1) = time(&mut buf);
            ipt_pool::set_num_threads(0);
            let ok = ok_n && ok_1 && pattern::verify(&buf, r, c, false, key);
            self.tally.record(ok);
            self.scaling = Some((t1, tn));
        }
    }

    /// Probe: `aos_to_soa` and back on 131072 structs x 12 `u64` fields.
    fn probe_skinny(&mut self) {
        let (n, s) = (131_072usize, 12usize);
        let key = pattern::key(0, 0x71);
        let mut buf = vec![0u64; n * s];
        pattern::fill(&mut buf, key);
        let bytes = pass_bytes::<u64>(buf.len());
        let ok = self
            .traced_call("probe.skinny", PROBE, |l, req| {
                l.t.span("skinny.transpose_skinny_r2c", req, bytes, || {
                    ipt_aos_soa::transpose_skinny_r2c(&mut buf, s, n)
                })
                .map_err(|e| e.to_string())
            })
            .is_ok();
        self.tally
            .record(ok && pattern::verify(&buf, n, s, true, key));
        let ok = self
            .traced_call("probe.skinny", PROBE, |l, req| {
                l.t.span("skinny.transpose_skinny_c2r", req, bytes, || {
                    ipt_aos_soa::transpose_skinny_c2r(&mut buf, s, n)
                })
                .map_err(|e| e.to_string())
            })
            .is_ok();
        self.tally
            .record(ok && pattern::verify(&buf, n, s, false, key));
    }

    /// Probe: one `transpose_batched` of `heads` and the sequential
    /// `ipt_core::permute` steps of one head of the same shape.
    pub fn probe_batched(&mut self, heads: &Heads) {
        if heads.elem == 8 {
            self.batched_as::<u64>(heads);
        } else {
            self.batched_as::<u32>(heads);
        }
    }

    fn batched_as<T: Elem + Default>(&mut self, h: &Heads) {
        let (r, c) = (h.rows, h.cols);
        let keys: Vec<u64> = (0..h.batch)
            .map(|k| pattern::key(0, 0x72 + k as u64))
            .collect();
        let mut buf = vec![T::default(); h.batch * r * c];
        for (head, &k) in buf.chunks_mut(r * c).zip(&keys) {
            pattern::fill(head, k);
        }
        let bytes = pass_bytes::<T>(buf.len());
        let ok = self
            .traced_call("probe.batched", PROBE, |l, req| {
                l.t.span("batched.transpose_batched", req, bytes, || {
                    batched::transpose_batched(&mut buf, h.batch, r, c, Layout::RowMajor)
                })
                .map_err(|e| e.to_string())
            })
            .is_ok();
        let ok = ok
            && buf
                .chunks(r * c)
                .zip(&keys)
                .all(|(head, &k)| pattern::verify(head, r, c, true, k));
        self.tally.record(ok);
        self.permute_as::<T>(r, c);
    }

    /// The sequential `ipt_core::permute` steps on one head of `heads`'
    /// shape.
    pub fn probe_permute(&mut self, heads: &Heads) {
        if heads.elem == 8 {
            self.permute_as::<u64>(heads.rows, heads.cols);
        } else {
            self.permute_as::<u32>(heads.rows, heads.cols);
        }
    }

    /// The C2R steps of `ipt_core::permute` on one `rows x cols` head,
    /// sequentially, each in a span (the direction `transpose_batched`
    /// takes is C2R when rows > cols; the probe always runs C2R on the
    /// taller orientation).
    fn permute_as<T: Elem + Default>(&mut self, rows: usize, cols: usize) {
        let (m, n) = (rows.max(cols), rows.min(cols));
        let key = pattern::key(0, 0x73);
        let mut head = vec![T::default(); m * n];
        pattern::fill(&mut head, key);
        let p = C2rParams::new(m, n);
        let mut tmp = vec![T::default(); m.max(n)];
        let bytes = pass_bytes::<T>(head.len());
        let ok = self
            .traced_call("probe.permute", PROBE, |l, req| {
                let rot = if p.coprime() { 0 } else { bytes };
                l.t.span("permute.prerotate_cycles", req, rot, || {
                    permute::prerotate_cycles(&mut head, &p)
                });
                l.t.span("permute.row_shuffle_gather", req, bytes, || {
                    permute::row_shuffle_gather(&mut head, &p, &mut tmp)
                });
                l.t.span("permute.col_shuffle_decomposed", req, bytes, || {
                    permute::col_shuffle_decomposed(&mut head, &p, &mut tmp)
                });
                Ok(())
            })
            .is_ok();
        self.tally
            .record(ok && pattern::verify(&head, m, n, true, key));
    }

    /// Probe: `ipt-cli transpose` on a 512 x 1024 `u64` file, and
    /// `transpose_erased` in process on the same bytes.
    fn probe_cli(&mut self, cli: &Path, work: &Path) {
        let (r, c) = (512usize, 1024usize);
        let key = pattern::key(0, 0x74);
        let file = work.join(format!("probe-{}.bin", std::process::id()));
        let run = crate::cli_file::CliMatrix::create(&file, r, c, key).and_then(|mut m| {
            let res = self.traced_call("probe.cli", PROBE, |l, req| m.traced(cli, l, req));
            let ok = res.is_ok() && m.verify()?;
            self.tally.record(ok);
            let ok = m.erased(self)?;
            self.tally.record(ok);
            m.remove();
            Ok(())
        });
        if let Err(e) = run {
            eprintln!("perfbench: cli probe failed: {e}");
            self.tally.record(false);
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> crate::Metrics {
        let calls = self.t.self_times(CALL);
        let probes = self.t.self_times(PROBE);
        let (call_ns, requests) = self.t.root_total(CALL);
        let requests = requests.max(1) as f64;
        // Per layer: from the workload's calls when they entered the
        // layer (self ms per traced call), else from its probe (self ms per
        // probe run); with the layer's GB/s over the same spans.
        let layer = |names: &[&str]| -> (f64, f64) {
            let pick = |selfs: &BTreeMap<&str, (u64, u64)>| -> (u64, u64) {
                names
                    .iter()
                    .filter_map(|n| selfs.get(n))
                    .fold((0, 0), |(a, b), v| (a + v.0, b + v.1))
            };
            let (cat, ns, per) = match pick(&calls) {
                (ns, count) if count > 0 => (CALL, ns, requests),
                _ => (
                    PROBE,
                    pick(&probes).0,
                    self.probe_roots(names).max(1) as f64,
                ),
            };
            let gbps = self.total_bytes(cat, names) as f64 / ns.max(1) as f64;
            (ns as f64 / 1e6 / per, gbps)
        };
        const PRE: &[&str] = &["cache_aware.prerotate"];
        const COL: &[&str] = &[
            "cache_aware.col_shuffle_fused",
            "cache_aware.col_shuffle_fused_inverse",
        ];
        const POST: &[&str] = &["cache_aware.postrotate_inverse"];
        const CA: &[&str] = &[
            "cache_aware.prerotate",
            "cache_aware.col_shuffle_fused",
            "cache_aware.col_shuffle_fused_inverse",
            "cache_aware.postrotate_inverse",
        ];
        const ROWS: &[&str] = &[
            "rows.row_shuffle_parallel",
            "rows.row_shuffle_forward_parallel",
        ];
        const SKINNY: &[&str] = &["skinny.transpose_skinny_r2c", "skinny.transpose_skinny_c2r"];
        let pool = if self.calls.dispatches > 0 {
            &self.calls
        } else {
            &self.probes
        };
        let kern = if self.kernels_hit() > 0 {
            &self.calls
        } else {
            &self.probes
        };
        let per_call = |x: u64| x as f64 / pool.calls.max(1) as f64;
        let hits = |k: &str| kern.kernels.get(k).copied().unwrap_or(0) as f64;
        let imbalance = {
            let v: Vec<u64> = pool.worker_chunks.values().copied().collect();
            let max = v.iter().copied().max().unwrap_or(0) as f64;
            let mean = v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
            if mean > 0.0 {
                max / mean
            } else {
                1.0
            }
        };
        let threads = ipt_pool::num_threads() as f64;
        let scaling = self
            .scaling
            .map_or(f64::NAN, |(t1, tn)| t1 / (threads * tn));
        let untraced_mean =
            self.untraced_ms.iter().sum::<f64>() / self.untraced_ms.len().max(1) as f64;
        let traced_ms = call_ns as f64 / 1e6 / requests;
        let failed_frac = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        let untraced_ms: f64 = self.untraced_ms.iter().sum();
        vec![
            (
                "gbps",
                2.0 * self.untraced_bytes as f64 / untraced_ms.max(f64::MIN_POSITIVE) / 1e6,
                "GB/s",
            ),
            ("call_ms_p50", crate::stats::median(&self.untraced_ms), "ms"),
            (
                "call_ms_p99",
                crate::stats::percentile(&self.untraced_ms, 99),
                "ms",
            ),
            ("cache_aware.pre_rotate_ms", layer(PRE).0, "ms"),
            ("cache_aware.col_shuffle_ms", layer(COL).0, "ms"),
            ("cache_aware.post_rotate_ms", layer(POST).0, "ms"),
            ("cache_aware.gbps", layer(CA).1, "GB/s"),
            ("rows.row_shuffle_ms", layer(ROWS).0, "ms"),
            ("rows.gbps", layer(ROWS).1, "GB/s"),
            (
                "kernels.row_gbps",
                self.kernel.0 as f64 / self.kernel.1.max(1) as f64,
                "GB/s",
            ),
            ("kernels.scalar_calls", hits("scalar"), "count"),
            ("kernels.block4_calls", hits("block4"), "count"),
            ("kernels.block8_calls", hits("block8"), "count"),
            (
                "pool.dispatches_per_call",
                per_call(pool.dispatches),
                "count",
            ),
            ("pool.chunks_per_call", per_call(pool.chunks), "count"),
            (
                "pool.dispatch_floor_us",
                pool.floor_us / pool.calls.max(1) as f64,
                "us",
            ),
            (
                "pool.scratch_allocs_per_call",
                per_call(pool.scratch_allocs),
                "count",
            ),
            ("pool.sched_imbalance", imbalance, "ratio"),
            ("pool.scaling_eff", scaling, "ratio"),
            (
                "pool.contained_panics",
                (self.calls.panics + self.probes.panics) as f64,
                "count",
            ),
            (
                "pool.retries",
                (self.calls.retries + self.probes.retries) as f64,
                "count",
            ),
            (
                "batched.call_ms",
                layer(&["batched.transpose_batched"]).0,
                "ms",
            ),
            (
                "permute.prerotate_cycles_us",
                1e3 * layer(&["permute.prerotate_cycles"]).0,
                "us",
            ),
            (
                "permute.row_shuffle_gather_us",
                1e3 * layer(&["permute.row_shuffle_gather"]).0,
                "us",
            ),
            (
                "permute.col_shuffle_decomposed_us",
                1e3 * layer(&["permute.col_shuffle_decomposed"]).0,
                "us",
            ),
            (
                "skinny.r2c_ms",
                layer(&["skinny.transpose_skinny_r2c"]).0,
                "ms",
            ),
            (
                "skinny.c2r_ms",
                layer(&["skinny.transpose_skinny_c2r"]).0,
                "ms",
            ),
            ("skinny.gbps", layer(SKINNY).1, "GB/s"),
            (
                "erased.transpose_ms",
                layer(&["erased.transpose_erased"]).0,
                "ms",
            ),
            ("cli.transpose_ms", layer(&["cli.transpose"]).0, "ms"),
            ("cli.io_ms", layer(&["cli.process"]).0, "ms"),
            ("ref.memcpy_gbps", self.memcpy_gbps, "GB/s"),
            ("ref.oop_gbps", self.oop_gbps, "GB/s"),
            ("trace.call_ms", traced_ms, "ms"),
            ("trace.untraced_call_ms", untraced_mean, "ms"),
            ("trace.overhead_ms", traced_ms - untraced_mean, "ms"),
            ("failed_frac", failed_frac, "fraction"),
        ]
    }

    fn probe_roots(&self, names: &[&str]) -> u64 {
        let spans = self.t.spans();
        let mut roots: Vec<usize> = spans
            .iter()
            .filter(|s| s.cat == PROBE && names.contains(&s.name))
            .filter_map(|s| {
                let mut i = s.parent?;
                while let Some(p) = spans[i].parent {
                    i = p;
                }
                Some(i)
            })
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len() as u64
    }

    fn total_bytes(&self, cat: &str, names: &[&str]) -> u64 {
        self.t
            .spans()
            .iter()
            .filter(|s| s.cat == cat && names.contains(&s.name))
            .map(|s| s.bytes)
            .sum()
    }

    /// Write the Chrome trace to `path` with `meta` attached.
    pub fn write_trace(&self, path: &Path, meta: Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.t.chrome(meta).render())
    }
}

/// Shape of a batched request: `batch` heads of `rows x cols`.
#[derive(Debug, Clone, Copy)]
pub struct Heads {
    /// Heads.
    pub batch: usize,
    /// Rows of each head.
    pub rows: usize,
    /// Columns of each head.
    pub cols: usize,
    /// Element size in bytes.
    pub elem: usize,
}

/// The fixed batched probe: 16 heads of 64 x 96 `u64` (48 KiB each).
pub const PROBE_HEADS: Heads = Heads {
    batch: 16,
    rows: 64,
    cols: 96,
    elem: 8,
};

/// Microseconds of one empty `par_chunks` over `0..m` with a grain of
/// `max(1, 4096 / n)` units: the range and grain `ipt_parallel` gives a
/// pass over `m` units of `n` elements (rows of a row shuffle, heads of
/// a batch). The pool's dispatch cost with no work; median of 5. A
/// call's floor is this times the dispatches it made.
pub fn dispatch_floor_us(m: usize, n: usize) -> f64 {
    let grain = (4096 / n.max(1)).max(1);
    let v: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            ipt_pool::par_chunks(0..m, grain, |r| {
                std::hint::black_box(r);
            })
            .expect("an empty dispatch cannot panic");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&v)
}

/// One thread, one staged row: `apply_row` of the auto-selected kernel
/// over up to `max_rows` rows of an `m x n` shape. Returns (bytes, ns).
fn apply_rows<T: Elem + Default>(
    m: usize,
    n: usize,
    dir: ShuffleDirection,
    max_rows: usize,
) -> (u64, u64) {
    let p = C2rParams::new(m, n);
    let kernel = kernels::select(&p);
    let src: Vec<T> = (0..n).map(|j| T::tag(j, 1)).collect();
    let mut dst = vec![T::default(); n];
    let rows = m.min(max_rows);
    let t0 = Instant::now();
    for i in 0..rows {
        kernel.apply_row(&p, i, std::hint::black_box(&src), &mut dst, dir);
        std::hint::black_box(&mut dst);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    (pass_bytes::<T>(n) * rows as u64, ns)
}

/// Out-of-place transpose bandwidth from `src`, read as `rows x cols`,
/// into a faulted-in destination (single thread,
/// `ipt_baselines::oop::transpose_into`), GB/s; median of `reps`.
pub fn oop_gbps<T: Elem + Default>(src: &[T], rows: usize, cols: usize, reps: usize) -> f64 {
    let mut dst = vec![T::default(); src.len()];
    dst.copy_from_slice(src);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            ipt_baselines::oop::transpose_into(src, &mut dst, rows, cols);
            std::hint::black_box(&mut dst);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    pass_bytes::<T>(src.len()) as f64 / crate::stats::median(&times) / 1e9
}

/// Peak resident bytes above `input` bytes since the last reset.
pub fn peak_aux_mib(input_bytes: usize) -> f64 {
    let hwm = sys::status_kib("VmHWM").unwrap_or(0) * 1024;
    (hwm as f64 - input_bytes as f64) / (1u64 << 20) as f64
}
