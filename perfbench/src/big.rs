//! The two DRAM-resident workloads: `dram-square` and `aos-skinny`.
//!
//! Both hold one 1200 MiB `u64` buffer (4x a 300 MiB L3) and feed each
//! call the previous call's output, so calls alternate direction:
//! `r2c_parallel` / `c2r_parallel` through `transpose_parallel` for
//! `dram-square`, `aos_to_soa` / `soa_to_aos` for `aos-skinny`. The timed
//! loop always ends on a whole pair, so every run mixes the two
//! directions equally.

use crate::ledger::{self, pass_bytes, Ledger};
use crate::pattern;
use crate::trace::CALL;
use crate::{attempt, run_pairs, secs, sys, Ctx, EndToEnd, Memcpy, Tally, Workload, SETUP_REPS};
use ipt_core::Layout;
use ipt_parallel::ParOptions;
use std::time::Instant;

/// 10240 x 15360: gcd 5120, so all four passes run.
const SQUARE: (usize, usize) = (10240, 15360);
/// 13,107,200 structs x 12 fields: gcd 4.
const SKINNY: (usize, usize) = (13_107_200, 12);
/// Call pairs kept per run (a pair takes 4-6 s).
const KEEP_PAIRS: usize = 3;

struct Big {
    square: bool,
    buf: Vec<u64>,
    /// Shape of the original (row-major) matrix.
    rows: usize,
    cols: usize,
    /// The buffer holds the transpose of the original.
    transposed: bool,
    key: u64,
}

impl Big {
    fn new(ctx: &Ctx) -> Big {
        let square = ctx.workload == Workload::DramSquare;
        let (rows, cols) = if square { SQUARE } else { SKINNY };
        let key = pattern::key(ctx.seed, u64::from(square));
        let mut buf = vec![0u64; rows * cols];
        pattern::fill(&mut buf, key);
        Big {
            square,
            buf,
            rows,
            cols,
            transposed: false,
            key,
        }
    }

    /// Current (row-major) shape of the buffer.
    fn shape(&self) -> (usize, usize) {
        if self.transposed {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    fn bytes(&self) -> usize {
        self.buf.len() * 8
    }

    /// One call through the public entry point.
    fn call(&mut self) -> Result<(), String> {
        let (r, c) = self.shape();
        let res = if self.square {
            ipt_parallel::transpose_parallel(
                &mut self.buf,
                r,
                c,
                Layout::RowMajor,
                &ParOptions::default(),
            )
        } else if self.transposed {
            ipt_aos_soa::soa_to_aos(&mut self.buf, self.rows, self.cols)
        } else {
            ipt_aos_soa::aos_to_soa(&mut self.buf, self.rows, self.cols)
        };
        res.map_err(|e| e.to_string())
    }

    /// The same call spelled out as layer calls inside spans.
    fn traced(&mut self, l: &mut Ledger, req: u64) -> Result<(), String> {
        let (r, c) = self.shape();
        if self.square {
            return l.transpose(req, &mut self.buf, r, c);
        }
        let bytes = pass_bytes::<u64>(self.buf.len());
        let (fields, structs) = (self.cols, self.rows);
        // The skinny row shuffle runs over `fields` rows of `structs`.
        l.floor_shape = Some((fields, structs));
        let res = if self.transposed {
            l.t.span("skinny.transpose_skinny_c2r", req, bytes, || {
                ipt_aos_soa::transpose_skinny_c2r(&mut self.buf, fields, structs)
            })
        } else {
            l.t.span("skinny.transpose_skinny_r2c", req, bytes, || {
                ipt_aos_soa::transpose_skinny_r2c(&mut self.buf, fields, structs)
            })
        };
        res.map_err(|e| e.to_string())
    }

    /// After a call: flip the orientation and check the whole buffer
    /// (outside any timing). A failed or wrong call leaves a torn buffer,
    /// which is refilled so the next call starts from a known state.
    fn settle(&mut self, ok: bool) -> bool {
        self.transposed = !self.transposed;
        let good =
            ok && pattern::verify(&self.buf, self.rows, self.cols, self.transposed, self.key);
        if !good {
            pattern::fill(&mut self.buf, self.key);
            self.transposed = false;
        }
        good
    }

    /// One untraced call, timed; returns (ms, correct).
    fn timed(&mut self) -> (f64, bool) {
        let t0 = Instant::now();
        let ok = attempt(|| self.call()).is_ok();
        let ms = secs(t0) * 1e3;
        (ms, self.settle(ok))
    }
}

/// Allocate, fill and fault in the buffer and the memcpy destination,
/// and time three copies. Returns the state, the memcpy reference and
/// its GB/s.
fn prepare(ctx: &Ctx) -> (Big, Memcpy<u64>, f64) {
    let b = Big::new(ctx);
    let mut mc = Memcpy::new(&b.buf);
    let times: Vec<f64> = (0..3).map(|_| mc.time(&b.buf)).collect();
    let gbps = mc.gbps(&times);
    (b, mc, gbps)
}

pub fn measure(ctx: &Ctx) -> Result<EndToEnd, String> {
    let mut tally = Tally::default();
    let mut prep_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let (b, mc, _) = prepare(ctx);
        prep_s.push(secs(t0));
        state = Some((b, mc));
    }
    let (mut b, mut mc) = state.expect("at least one set-up");
    let t0 = Instant::now();
    let (_, ok) = b.timed();
    tally.record(ok);
    let setup_s = crate::stats::median(&prep_s) + secs(t0);
    // One memcpy before each call, so the reference sees the same host
    // conditions as the calls it is divided into.
    let mut peak = f64::MIN;
    let pairs = run_pairs(ctx, KEEP_PAIRS, |p| {
        p.copies.push(mc.time(&b.buf));
        sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
        let (ms, ok) = b.timed();
        peak = peak.max(ledger::peak_aux_mib(b.bytes() + mc.bytes()));
        p.call_ms.push(ms);
        tally.record(ok);
        Ok(())
    })?;
    let call_ms: Vec<f64> = pairs.iter().flat_map(|p| p.call_ms.clone()).collect();
    let copies: Vec<f64> = pairs.iter().flat_map(|p| p.copies.clone()).collect();
    let gbps = pass_bytes::<u64>(b.buf.len()) as f64 / crate::stats::median(&call_ms) / 1e6;
    Ok(EndToEnd {
        tally,
        call_ms,
        gbps,
        memcpy_gbps: mc.gbps(&copies),
        peak_aux_mib: peak,
        setup_s,
    })
}

pub fn trace(ctx: &Ctx, l: &mut Ledger) -> Result<(), String> {
    let (mut b, mc, gbps) = prepare(ctx);
    drop(mc);
    l.memcpy_gbps = gbps;
    let (_, ok) = b.timed();
    l.tally.record(ok);
    // Blocks of two untraced then two traced calls: each half covers
    // both directions.
    let t0 = Instant::now();
    while l.untraced_ms.is_empty() || secs(t0) < ctx.seconds {
        for _ in 0..2 {
            let (ms, ok) = b.timed();
            l.untraced_ms.push(ms);
            l.untraced_bytes += b.bytes() as u64;
            l.tally.record(ok);
        }
        for _ in 0..2 {
            let ok = l
                .traced_call("request", CALL, |l, req| b.traced(l, req))
                .is_ok();
            let good = b.settle(ok);
            l.tally.record(good);
        }
    }
    // One pair at one thread against the pool-width pair above.
    ipt_pool::set_num_threads(1);
    let one: Vec<f64> = (0..2)
        .map(|_| {
            let (ms, ok) = b.timed();
            l.tally.record(ok);
            ms
        })
        .collect();
    ipt_pool::set_num_threads(0);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    l.scaling = Some((mean(&one), mean(&l.untraced_ms)));
    l.kernel_probe(2048);
    let (r, c) = b.shape();
    l.oop_gbps = ledger::oop_gbps(&b.buf, r, c, 1);
    Ok(())
}
