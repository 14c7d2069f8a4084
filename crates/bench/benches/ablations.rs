//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! each optimization of the paper's §4, on vs off.
//!
//! * §4.4 arithmetic strength reduction — `C2rParams` (fixed-point
//!   reciprocals) vs the naive `/`, `%` transcription;
//! * §4.6–4.7 cache-aware parallel engine vs the sequential strided
//!   `c2r_decomposed`, and its column-group width from 32 to 1024 bytes;
//! * gather- vs scatter-based row shuffle (§5.1 chose gather);
//! * direct column shuffle vs the §4.1 restricted decomposition;
//! * §4.6 zero-scratch cycle rotation vs Algorithm 1's scratch rotation;
//! * §6.1 skinny specialization vs the general engine on AoS shapes;
//! * §5.2 C2R/R2C heuristic vs always picking one direction.

use ipt_bench::micro::{Criterion, Throughput};
use ipt_bench::{criterion_group, criterion_main};
use ipt_core::index::{naive, C2rParams};
use ipt_core::{permute, Scratch};
use ipt_parallel::{cache_aware, rows, ParOptions};
use std::hint::black_box;

fn fill(buf: &mut [u64]) {
    for (i, v) in buf.iter_mut().enumerate() {
        *v = i as u64;
    }
}

fn strength_reduction(c: &mut Criterion) {
    // Evaluate d'^-1 over a full (large) row: the hot index computation of
    // the gather row shuffle.
    let (m, n) = (1000usize, 8192usize);
    let p = C2rParams::new(m, n);
    let s = naive::Shape::new(m, n);
    let mut g = c.benchmark_group("ablation/strength-reduction");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("fastdiv", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for j in 0..n {
                acc = acc.wrapping_add(p.d_inv(black_box(500), j));
            }
            acc
        })
    });
    g.bench_function("hardware-div", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for j in 0..n {
                acc = acc.wrapping_add(s.d_inv(black_box(500), j));
            }
            acc
        })
    });
    g.finish();
}

fn cache_aware_columns(c: &mut Criterion) {
    let (m, n) = (1024usize, 768usize);
    let mut buf = vec![0u64; m * n];
    let mut g = c.benchmark_group("ablation/cache-aware");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("cache-aware", |b| {
        let opts = ParOptions::default();
        b.iter(|| {
            fill(&mut buf);
            ipt_parallel::c2r_parallel(black_box(&mut buf), m, n, &opts).unwrap();
        })
    });
    g.bench_function("sequential-strided", |b| {
        let mut s = Scratch::new();
        b.iter(|| {
            fill(&mut buf);
            ipt_core::c2r::c2r_decomposed(black_box(&mut buf), m, n, &mut s);
        })
    });
    // The column-group width `ParOptions::group_width` fixes at 256
    // bytes: C2R's passes with groups of 32 to 1024 bytes (4 to 128 u64).
    let p = C2rParams::new(m, n);
    let h = ParOptions::default().block_rows;
    for bytes in [32usize, 64, 128, 256, 512, 1024] {
        let w = bytes / 8;
        g.bench_function(format!("group-width-{bytes}B"), |b| {
            b.iter(|| {
                fill(&mut buf);
                cache_aware::prerotate(black_box(&mut buf), &p, w, h).unwrap();
                rows::row_shuffle_parallel(&mut buf, &p).unwrap();
                cache_aware::col_shuffle_fused(&mut buf, &p, w, h).unwrap();
            })
        });
    }
    g.finish();
}

fn row_shuffle_direction(c: &mut Criterion) {
    let (m, n) = (512usize, 2048usize);
    let p = C2rParams::new(m, n);
    let mut buf = vec![0u64; m * n];
    let mut tmp = vec![0u64; n];
    let mut g = c.benchmark_group("ablation/row-shuffle");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("gather", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::row_shuffle_gather(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.bench_function("scatter", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::row_shuffle_scatter(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.finish();
}

fn col_shuffle_decomposition(c: &mut Criterion) {
    let (m, n) = (512usize, 768usize);
    let p = C2rParams::new(m, n);
    let mut buf = vec![0u64; m * n];
    let mut tmp = vec![0u64; m.max(n)];
    let mut g = c.benchmark_group("ablation/col-shuffle");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("direct-s", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::col_shuffle_gather(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.bench_function("rotate-plus-permute", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::col_shuffle_decomposed(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.finish();
}

fn rotation_style(c: &mut Criterion) {
    let (m, n) = (768usize, 1024usize); // gcd = 256 > 1, so prerotation runs
    let p = C2rParams::new(m, n);
    let mut buf = vec![0u64; m * n];
    let mut tmp = vec![0u64; m];
    let mut g = c.benchmark_group("ablation/prerotate");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("analytic-cycles", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::prerotate_cycles(black_box(&mut buf), &p);
        })
    });
    g.bench_function("scratch-buffer", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::prerotate_scratch(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.finish();
}

fn skinny_specialization(c: &mut Criterion) {
    let (n_structs, fields) = (131072usize, 12usize);
    let mut buf = vec![0u64; n_structs * fields];
    let mut g = c.benchmark_group("ablation/aos-soa");
    g.throughput(Throughput::Bytes((2 * n_structs * fields * 8) as u64));
    g.sample_size(10);
    g.bench_function("specialized-skinny", |b| {
        b.iter(|| {
            fill(&mut buf);
            ipt_aos_soa::aos_to_soa(black_box(&mut buf), n_structs, fields).unwrap();
        })
    });
    g.bench_function("general-engine", |b| {
        let opts = ParOptions::default();
        b.iter(|| {
            fill(&mut buf);
            ipt_parallel::transpose_parallel(
                black_box(&mut buf),
                n_structs,
                fields,
                ipt_core::Layout::RowMajor,
                &opts,
            )
            .unwrap();
        })
    });
    g.finish();
}

fn direction_heuristic(c: &mut Criterion) {
    // A wide matrix (m < n): the heuristic picks R2C; forcing C2R shows
    // the penalty the §5.2 heuristic avoids.
    let (m, n) = (96usize, 8192usize);
    let mut buf = vec![0u64; m * n];
    let mut g = c.benchmark_group("ablation/heuristic-wide-matrix");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    let mut s = Scratch::new();
    g.bench_function("heuristic(R2C)", |b| {
        b.iter(|| {
            fill(&mut buf);
            ipt_core::transpose(
                black_box(&mut buf),
                m,
                n,
                ipt_core::Layout::RowMajor,
                &mut s,
            );
        })
    });
    g.bench_function("forced-C2R", |b| {
        b.iter(|| {
            fill(&mut buf);
            ipt_core::transpose_with(
                black_box(&mut buf),
                m,
                n,
                ipt_core::Layout::RowMajor,
                ipt_core::Algorithm::C2r,
                &mut s,
            );
        })
    });
    g.finish();
}

fn incremental_indexing(c: &mut Criterion) {
    // The engine's incremental d' recurrence vs the sequential §4.4
    // fastdiv gather — both permute identically; only the index
    // generation (and the parallel split) differs.
    let (m, n) = (768usize, 2048usize);
    let p = C2rParams::new(m, n);
    let mut buf = vec![0u64; m * n];
    let mut tmp = vec![0u64; n];
    let mut g = c.benchmark_group("ablation/row-shuffle-indexing");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("incremental", |b| {
        b.iter(|| {
            fill(&mut buf);
            rows::row_shuffle_parallel(black_box(&mut buf), &p).unwrap();
        })
    });
    g.bench_function("fastdiv-gather", |b| {
        b.iter(|| {
            fill(&mut buf);
            permute::row_shuffle_gather(black_box(&mut buf), &p, &mut tmp);
        })
    });
    g.finish();
}

fn copy_vs_swap_formulations(c: &mut Criterion) {
    // The Copy scratch-buffer path vs the swap-only path that supports
    // arbitrary T: the price of genericity.
    let (m, n) = (512usize, 768usize);
    let mut buf = vec![0u64; m * n];
    let mut g = c.benchmark_group("ablation/element-model");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("copy-scratch", |b| {
        let mut s = Scratch::new();
        b.iter(|| {
            fill(&mut buf);
            ipt_core::c2r(black_box(&mut buf), m, n, &mut s);
        })
    });
    g.bench_function("swap-only", |b| {
        b.iter(|| {
            fill(&mut buf);
            ipt_core::noncopy::c2r_swaps(black_box(&mut buf), m, n);
        })
    });
    g.bench_function("type-erased-8B", |b| {
        let mut bytes = vec![0u8; m * n * 8];
        b.iter(|| {
            ipt_core::erased::c2r_erased(black_box(&mut bytes), m, n, 8);
        })
    });
    g.finish();
}

fn special_case_dow(c: &mut Criterion) {
    // Dow's divisible-shape algorithm vs the general decomposition on a
    // shape both handle: the cost of generality on Dow's home turf.
    let (m, n) = (512usize, 2048usize); // n = 4m
    assert!(ipt_baselines::dow_supports(m, n));
    let mut buf = vec![0u64; m * n];
    let mut g = c.benchmark_group("ablation/dow-special-case");
    g.throughput(Throughput::Bytes((2 * m * n * 8) as u64));
    g.sample_size(10);
    g.bench_function("dow", |b| {
        b.iter(|| {
            fill(&mut buf);
            ipt_baselines::transpose_dow(black_box(&mut buf), m, n);
        })
    });
    g.bench_function("general-c2r", |b| {
        let opts = ParOptions::default();
        b.iter(|| {
            fill(&mut buf);
            ipt_parallel::c2r_parallel(black_box(&mut buf), m, n, &opts).unwrap();
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    strength_reduction,
    cache_aware_columns,
    row_shuffle_direction,
    col_shuffle_decomposition,
    rotation_style,
    skinny_specialization,
    direction_heuristic,
    incremental_indexing,
    copy_vs_swap_formulations,
    special_case_dow
);
criterion_main!(benches);
