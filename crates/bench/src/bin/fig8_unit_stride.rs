//! Figure 8: unit-stride Array-of-Structures store (a) and copy (b)
//! bandwidth versus structure size.
//!
//! Paper setup: a Tesla K20c warp performing unit-stride AoS accesses with
//! three strategies — compiler-generated element-wise ("Direct"), the
//! hardware's 128-bit vector ops ("Vector"), and the in-register C2R/R2C
//! transpose ("C2R") — for structure sizes 4..64 bytes. C2R sustains full
//! memory bandwidth (~180 GB/s measured) at every size; Direct collapses
//! (up to 45x slower for stores); Vector sits between.
//!
//! Our substitution (DESIGN.md): the warp simulator generates exactly the
//! per-pass address streams of each strategy and the `memsim` transaction
//! model converts them to estimated GB/s on a K20c-like memory
//! (128 B lines, 208 GB/s peak). Element type is f32, so structure sizes
//! 4..64 bytes map to 1..16 fields.

use ipt_bench::harness::*;
use memsim::MemoryConfig;
use warp_sim::{AccessStrategy, CoalescedPtr};

const LANES: usize = 32;
const WARPS: usize = 64; // warps simulated per data point

fn main() {
    let usage = "fig8_unit_stride [--csv PATH] [--verify]";
    let args = Args::parse(usage).unwrap_or_else(|code| std::process::exit(code));
    println!("Figure 8: unit-stride AoS access, {LANES}-lane warps, f32 elements");
    println!("model: 128 B transactions, 208 GB/s peak (K20c-like)\n");

    let strategies = [
        ("C2R", AccessStrategy::C2r),
        ("Direct", AccessStrategy::Direct),
        ("Vector", AccessStrategy::Vector { width_bytes: 16 }),
    ];

    let mut csv = Csv::new("panel,struct_bytes,strategy,gbps");
    for (panel, do_load, do_store) in [("store", false, true), ("copy", true, true)] {
        println!(
            "--- Fig. 8{} : {} bandwidth ---",
            if panel == "store" { 'a' } else { 'b' },
            panel
        );
        println!(
            "{:>12} {:>10} {:>10} {:>10}",
            "struct bytes", "C2R", "Direct", "Vector"
        );
        for fields in 1..=16usize {
            let bytes = fields * 4;
            let mut row = format!("{bytes:>12}");
            for (name, strat) in strategies {
                let gbps = run(fields, strat, do_load, do_store, args.verify);
                row.push_str(&format!(" {gbps:>10.1}"));
                csv.row(format!("{panel},{bytes},{name},{gbps:.3}"));
            }
            println!("{row}");
        }
        println!();
    }
    println!("paper shape: C2R flat at ~full bandwidth for all sizes; Direct lowest");
    println!("(up to 45x below C2R for stores); Vector intermediate, best at 16-byte structs");
    csv.finish(&args.csv);
}

fn run(fields: usize, strat: AccessStrategy, do_load: bool, do_store: bool, verify: bool) -> f64 {
    let total_structs = WARPS * LANES;
    let mut data: Vec<f32> = (0..total_structs * fields).map(|i| i as f32).collect();
    let reference = data.clone();
    let mut ptr = CoalescedPtr::new(&mut data, fields, MemoryConfig::default());
    for w in 0..WARPS {
        let base = w * LANES;
        let vals = if do_load {
            ptr.load_unit_stride(base, LANES, strat)
        } else {
            // store-only panel: lanes produce values (here: what's there,
            // so the buffer is checkable afterwards).
            (0..LANES * fields)
                .map(|k| (base * fields + k) as f32)
                .collect()
        };
        if do_store {
            ptr.store_unit_stride(base, LANES, &vals, strat);
        }
    }
    let gbps = ptr.memory().estimated_throughput_gbps();
    if verify {
        assert_eq!(data, reference, "strategy corrupted the buffer");
    }
    gbps
}
