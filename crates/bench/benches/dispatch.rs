//! The pool's dispatch floor and what it costs a small transpose.
//!
//! Part 1: an empty dispatch (one index per worker, no work), p10/p50/p90
//! over 2001 samples, back-to-back and after 300 us idle, for every pool
//! width from 1 to the host's thread count (and at least 2).
//!
//! Part 2: median `transpose_parallel` time of cache-resident `u64`
//! shapes on 1 thread and on 2 threads, the two widths timed in
//! alternating rounds so drift hits both alike.
//!
//! `cargo bench -p ipt-bench --bench dispatch --features criterion`

use ipt_bench::micro::{empty_dispatch, Percentiles};
use ipt_core::Layout;
use ipt_parallel::{transpose_parallel, ParOptions};
use ipt_pool::Pool;
use std::time::{Duration, Instant};

const SHAPES: [(usize, usize); 5] = [(64, 96), (192, 256), (256, 512), (384, 320), (512, 1024)];

fn main() {
    let width = Pool::global().threads().max(2);
    println!("empty dispatch (ns), 2001 samples each");
    for threads in 1..=width {
        for (label, idle) in [
            ("back-to-back", Duration::ZERO),
            ("after 300 us idle", Duration::from_micros(300)),
        ] {
            let p = empty_dispatch(Pool::new(threads), 2001, idle);
            println!("  {threads} thread(s), {label:<18} {p}");
        }
    }

    println!();
    println!("transpose_parallel, u64, median of 21 rounds x 25 calls per width");
    println!(
        "  {:>10} {:>9} {:>12} {:>12} {:>7}",
        "shape", "KiB", "1 thread", "2 threads", "2 vs 1"
    );
    let opts = ParOptions::default();
    for (rows, cols) in SHAPES {
        let mut buf: Vec<u64> = (0..(rows * cols) as u64).collect();
        let mut per_width = [Vec::new(), Vec::new()];
        for _ in 0..21 {
            for (slot, threads) in per_width.iter_mut().zip([1, 2]) {
                ipt_pool::set_num_threads(threads);
                let t0 = Instant::now();
                for _ in 0..25 {
                    transpose_parallel(&mut buf, rows, cols, Layout::RowMajor, &opts).unwrap();
                    transpose_parallel(&mut buf, cols, rows, Layout::RowMajor, &opts).unwrap();
                }
                slot.push(t0.elapsed().as_nanos() as f64 / 50.0);
            }
        }
        ipt_pool::set_num_threads(0);
        let [one, two] = per_width.map(|v| Percentiles::of(v).p50 / 1e3);
        println!(
            "  {:>10} {:>9} {:>9.1} us {:>9.1} us {:>6.2}x",
            format!("{rows}x{cols}"),
            rows * cols * 8 / 1024,
            one,
            two,
            one / two
        );
        assert_eq!(
            buf[1], 1,
            "an even number of transposes restores the buffer"
        );
    }
}
