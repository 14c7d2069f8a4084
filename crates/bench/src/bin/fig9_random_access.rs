//! Figure 9: random Array-of-Structures scatter (a) and gather (b)
//! bandwidth versus structure size.
//!
//! Paper setup: as Figure 8, but each lane accesses a *random* structure
//! index, so indices must also be exchanged between lanes with shuffles.
//! The paper's observation: with the C2R technique, throughput improves
//! as the structure size approaches the cache-line width, because the
//! warp reads each structure's fields contiguously; Direct access stays
//! at one mostly-wasted transaction per element.
//!
//! Same substitution as Figure 8: warp-sim address streams + the memsim
//! transaction model (128 B lines, 208 GB/s peak), f32 elements.

use ipt_bench::harness::*;
use memsim::MemoryConfig;
use warp_sim::{AccessStrategy, CoalescedPtr};

const LANES: usize = 32;
const WARPS: usize = 64;

fn main() {
    let usage = "fig9_random_access [--seed N] [--csv PATH] [--verify]";
    let args = Args::parse(usage).unwrap_or_else(|code| std::process::exit(code));
    println!("Figure 9: random AoS access, {LANES}-lane warps, f32 elements");
    println!("model: 128 B transactions, 208 GB/s peak (K20c-like)\n");

    let strategies = [
        ("C2R", AccessStrategy::C2r),
        ("Direct", AccessStrategy::Direct),
        ("Vector", AccessStrategy::Vector { width_bytes: 16 }),
    ];

    let mut csv = Csv::new("panel,struct_bytes,strategy,gbps");
    for (panel, is_gather) in [("scatter", false), ("gather", true)] {
        println!(
            "--- Fig. 9{} : random {} bandwidth ---",
            if panel == "scatter" { 'a' } else { 'b' },
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
                let gbps = run(fields, strat, is_gather, args.seed, args.verify);
                row.push_str(&format!(" {gbps:>10.1}"));
                csv.row(format!("{panel},{bytes},{name},{gbps:.3}"));
            }
            println!("{row}");
        }
        println!();
    }
    println!("paper shape: C2R throughput grows with struct size toward the line width;");
    println!("Direct stays near one-line-per-element; Vector intermediate");
    csv.finish(&args.csv);
}

fn run(fields: usize, strat: AccessStrategy, is_gather: bool, seed: u64, verify: bool) -> f64 {
    let total_structs = 1 << 16; // spread accesses over a large array
    let mut data: Vec<f32> = (0..total_structs * fields)
        .map(|i| (i % 1024) as f32)
        .collect();
    let reference = data.clone();
    let mut rng = Rng64::new(seed ^ fields as u64);
    let mut ptr = CoalescedPtr::new(&mut data, fields, MemoryConfig::default());
    for _ in 0..WARPS {
        // Distinct random destinations per warp (scatter forbids dups).
        let mut indices = Vec::with_capacity(LANES);
        while indices.len() < LANES {
            let ix = rng.range(0, total_structs);
            if !indices.contains(&ix) {
                indices.push(ix);
            }
        }
        if is_gather {
            let vals = ptr.gather(&indices, strat);
            if verify {
                for (l, &ix) in indices.iter().enumerate() {
                    for k in 0..fields {
                        assert_eq!(vals[l * fields + k], reference[ix * fields + k]);
                    }
                }
            }
        } else {
            let vals: Vec<f32> = indices
                .iter()
                .flat_map(|&ix| (0..fields).map(move |k| ((ix * fields + k) % 1024) as f32))
                .collect();
            ptr.scatter(&indices, &vals, strat);
        }
    }
    let gbps = ptr.memory().estimated_throughput_gbps();
    drop(ptr);
    if verify && !is_gather {
        assert_eq!(
            data, reference,
            "scatter of original values changed the buffer"
        );
    }
    gbps
}
