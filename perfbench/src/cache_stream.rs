//! The `cache-stream` workload: a seeded stream of cache-resident
//! requests (see [`crate::stream`]), replayed closed-loop from two 1 MiB
//! buffers that stay resident for the whole run.

use crate::ledger::{self, pass_bytes, Heads, Ledger};
use crate::pattern::{self, Elem};
use crate::stream::{self, Request};
use crate::trace::CALL;
use crate::{
    attempt, least_stolen, secs, sys, Ctx, EndToEnd, Memcpy, MAX_STEAL, SETUP_REPS, STEAL_PATIENCE,
};
use ipt_core::Layout;
use ipt_parallel::{batched, ParOptions};
use std::time::Instant;

/// Requests generated per seed; the timed loop replays them in rounds.
/// The latency tail is set by the stream's largest requests, so the
/// stream is long enough that p99 rests on 30 of them, not a seed's
/// handful.
const STREAM_LEN: usize = 3000;
/// Requests per window, the unit of steal accounting.
const WINDOW: usize = 100;
/// Windows kept per stream position: the result is assembled from the
/// `KEEP` least-stolen replays of each window, i.e. `KEEP` whole rounds'
/// worth of calls (6000, so p99 is resolved). Small calls are dominated
/// by thread wake-ups, which steal slows the most.
const KEEP: usize = 2;
/// Requests replayed at one thread for the scaling figure.
const SCALING_REQS: usize = 200;
/// Requests between two timed memcpys of the reference.
const COPY_EVERY: usize = 8;

/// The resident request buffers, one per element type.
struct Bufs {
    wide: Vec<u64>,
    narrow: Vec<u32>,
}

impl Bufs {
    fn new() -> Bufs {
        let mut b = Bufs {
            wide: vec![0; stream::SINGLE_BYTES / 8],
            narrow: vec![0; stream::SINGLE_BYTES / 4],
        };
        // Fault both in.
        pattern::fill(&mut b.wide, 1);
        pattern::fill(&mut b.narrow, 1);
        b
    }

    fn bytes(&self) -> usize {
        self.wide.len() * 8 + self.narrow.len() * 4
    }
}

/// How a request is issued.
enum Mode<'a> {
    /// Through the public entry point.
    Plain,
    /// As traced layer calls.
    Traced(&'a mut Ledger),
}

/// Fill the request's heads, issue it, check every head. Returns
/// (ms of the call alone, correct).
fn issue(bufs: &mut Bufs, r: &Request, key: u64, mode: Mode) -> (f64, bool) {
    if r.elem == 8 {
        issue_as(&mut bufs.wide[..r.len()], r, key, mode)
    } else {
        issue_as(&mut bufs.narrow[..r.len()], r, key, mode)
    }
}

fn issue_as<T: Elem>(buf: &mut [T], r: &Request, key: u64, mode: Mode) -> (f64, bool) {
    let head = r.rows * r.cols;
    let keys = |k: usize| pattern::key(key, k as u64);
    for (k, h) in buf.chunks_mut(head).enumerate() {
        pattern::fill(h, keys(k));
    }
    let t0 = Instant::now();
    let res = match mode {
        Mode::Plain => attempt(|| call(buf, r)),
        Mode::Traced(l) => l.traced_call("request", CALL, |l, req| traced(l, req, buf, r)),
    };
    let ms = secs(t0) * 1e3;
    let ok = res.is_ok()
        && buf
            .chunks(head)
            .enumerate()
            .all(|(k, h)| pattern::verify(h, r.rows, r.cols, true, keys(k)));
    (ms, ok)
}

fn call<T: Elem>(buf: &mut [T], r: &Request) -> Result<(), String> {
    let res = if r.batch == 1 {
        ipt_parallel::transpose_parallel(
            buf,
            r.rows,
            r.cols,
            Layout::RowMajor,
            &ParOptions::default(),
        )
    } else {
        batched::transpose_batched(buf, r.batch, r.rows, r.cols, Layout::RowMajor)
    };
    res.map_err(|e| e.to_string())
}

fn traced<T: Elem>(l: &mut Ledger, req: u64, buf: &mut [T], r: &Request) -> Result<(), String> {
    if r.batch == 1 {
        return l.transpose(req, buf, r.rows, r.cols);
    }
    // One dispatch over the heads, one head per work item.
    l.floor_shape = Some((r.batch, r.rows * r.cols));
    l.t.span(
        "batched.transpose_batched",
        req,
        pass_bytes::<T>(buf.len()),
        || batched::transpose_batched(buf, r.batch, r.rows, r.cols, Layout::RowMajor),
    )
    .map_err(|e| e.to_string())
}

/// Key of the `i`-th request of the stream.
fn req_key(seed: u64, i: usize) -> u64 {
    pattern::key(seed, 0x1000 + i as u64)
}

/// Generate the stream, fault in the buffers and the 1 MiB memcpy
/// destination, and time 200 copies.
fn prepare(ctx: &Ctx) -> (Vec<Request>, Bufs, Memcpy<u64>, f64) {
    let reqs = stream::generate(ctx.seed, STREAM_LEN);
    let bufs = Bufs::new();
    let mut mc = Memcpy::new(&bufs.wide);
    let times: Vec<f64> = (0..200).map(|_| mc.time(&bufs.wide)).collect();
    let gbps = mc.gbps(&times);
    (reqs, bufs, mc, gbps)
}

/// The untimed first call of a run: the stream's first request.
fn warm_up(ctx: &Ctx, reqs: &[Request], bufs: &mut Bufs) -> bool {
    issue(bufs, &reqs[0], req_key(ctx.seed, 0), Mode::Plain).1
}

pub fn measure(ctx: &Ctx) -> Result<EndToEnd, String> {
    let mut tally = crate::Tally::default();
    let mut prep_s = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let (reqs, bufs, mc, _) = prepare(ctx);
        prep_s.push(secs(t0));
        state = Some((reqs, bufs, mc));
    }
    let (reqs, mut bufs, mut mc) = state.expect("at least one set-up");
    let t0 = Instant::now();
    tally.record(warm_up(ctx, &reqs, &mut bufs));
    let setup_s = crate::stats::median(&prep_s) + secs(t0);
    // windows[w]: every replay of requests w*WINDOW..(w+1)*WINDOW.
    let mut windows: Vec<Vec<Window>> = (0..reqs.len().div_ceil(WINDOW))
        .map(|_| Vec::new())
        .collect();
    sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        for (w, chunk) in reqs.chunks(WINDOW).enumerate() {
            let steal = sys::Steal::start();
            let mut win = Window::default();
            for (k, r) in chunk.iter().enumerate() {
                if k % COPY_EVERY == 0 {
                    // The first copy pulls both buffers back into cache;
                    // the second is timed from cache, as the requests run.
                    mc.time(&bufs.wide);
                    win.copies.push(mc.time(&bufs.wide));
                }
                let i = w * WINDOW + k;
                let (ms, ok) = issue(&mut bufs, r, req_key(ctx.seed, i), Mode::Plain);
                win.call_ms.push(ms);
                win.bytes += r.bytes();
                tally.record(ok);
            }
            win.steal = steal.share();
            windows[w].push(win);
        }
        rounds += 1;
        let t = secs(t0);
        if rounds >= KEEP
            && t >= ctx.seconds
            && (kept(&mut windows).1 <= MAX_STEAL || t >= STEAL_PATIENCE * ctx.seconds)
        {
            break;
        }
    }
    let peak = ledger::peak_aux_mib(bufs.bytes() + mc.bytes());
    let (kept, steal) = kept(&mut windows);
    println!("rounds {rounds}, kept the {KEEP} least-stolen replays of each window (mean steal share {steal:.4})");
    let call_ms: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.call_ms.iter().copied())
        .collect();
    let copies: Vec<f64> = kept.iter().flat_map(|w| w.copies.iter().copied()).collect();
    let bytes: usize = kept.iter().map(|w| w.bytes).sum();
    Ok(EndToEnd {
        tally,
        gbps: 2.0 * bytes as f64 / call_ms.iter().sum::<f64>() / 1e6,
        call_ms,
        memcpy_gbps: mc.gbps(&copies),
        peak_aux_mib: peak,
        setup_s,
    })
}

/// One replay of one window of the stream.
#[derive(Default)]
struct Window {
    call_ms: Vec<f64>,
    /// Memcpy reference times taken during the window, s.
    copies: Vec<f64>,
    /// Payload bytes of the window's requests.
    bytes: usize,
    /// Share of CPU time the hypervisor stole meanwhile.
    steal: f64,
}

/// The `KEEP` least-stolen replays of every window, and their mean steal
/// share. Every window contributes equally, so the kept calls are `KEEP`
/// copies of the whole stream.
fn kept(windows: &mut [Vec<Window>]) -> (Vec<&Window>, f64) {
    let mut out = Vec::new();
    for replays in windows.iter_mut() {
        out.extend(least_stolen(replays, |w| w.steal, KEEP).0);
    }
    let steal = out.iter().map(|w| w.steal).sum::<f64>() / out.len().max(1) as f64;
    (out, steal)
}

pub fn trace(ctx: &Ctx, l: &mut Ledger) -> Result<(), String> {
    let (reqs, mut bufs, _, gbps) = prepare(ctx);
    l.memcpy_gbps = gbps;
    l.tally.record(warm_up(ctx, &reqs, &mut bufs));
    // Each request twice, untraced then traced, so both halves see the
    // same shapes.
    let t0 = Instant::now();
    let mut i = 0;
    while i < SCALING_REQS || secs(t0) < ctx.seconds {
        let r = &reqs[i % reqs.len()];
        let key = req_key(ctx.seed, i % reqs.len());
        let (ms, ok) = issue(&mut bufs, r, key, Mode::Plain);
        l.untraced_ms.push(ms);
        l.untraced_bytes += r.bytes() as u64;
        l.tally.record(ok);
        let (_, ok) = issue(&mut bufs, r, key, Mode::Traced(l));
        l.tally.record(ok);
        i += 1;
    }
    // The first requests again at one thread and at pool width.
    let mut replay = |l: &mut Ledger| -> f64 {
        (0..SCALING_REQS)
            .map(|i| {
                let (ms, ok) = issue(&mut bufs, &reqs[i], req_key(ctx.seed, i), Mode::Plain);
                l.tally.record(ok);
                ms
            })
            .sum()
    };
    let wide = replay(l);
    ipt_pool::set_num_threads(1);
    let one = replay(l);
    ipt_pool::set_num_threads(0);
    l.scaling = Some((one, wide));
    l.kernel_probe(1024);
    // The sequential permute steps on one head of the first batched
    // shapes.
    for r in reqs.iter().filter(|r| r.batch > 1).take(8) {
        l.probe_permute(&Heads {
            batch: r.batch,
            rows: r.rows,
            cols: r.cols,
            elem: r.elem,
        });
    }
    let (rows, cols) = (512, stream::SINGLE_BYTES / 8 / 512);
    l.oop_gbps = ledger::oop_gbps(&bufs.wide, rows, cols, 21);
    Ok(())
}
