//! `ipt` — command-line in-place matrix transposition.
//!
//! Operates on raw binary matrix files (elements of any fixed size,
//! little-endian or opaque), using the PPoPP 2014 decomposed in-place
//! algorithm so the working set is the file buffer plus `O(max(m, n))`
//! bookkeeping.
//!
//! ```text
//! ipt transpose  FILE --rows R --cols C --elem-size S [--layout row|col] [--out PATH]
//! ipt aos2soa    FILE --structs N --fields K --elem-size S [--out PATH]
//! ipt soa2aos    FILE --structs N --fields K --elem-size S [--out PATH]
//! ipt gen        FILE --rows R --cols C --elem-size S [--seed X]
//! ipt verify     FILE --rows R --cols C --elem-size S
//! ipt info       FILE --elem-size S
//! ipt bench      --suite transpose|parallel|kernels|aos|batched [...]
//! ipt bench      --compare OLD NEW | --compare NEW --history DIR
//! ipt model      --rows R --cols C --elem N [--max-divergence X]
//! ```
//!
//! `gen` writes a position-identifying pattern; `verify` checks that a
//! file holds the transpose of that pattern — together they give an
//! end-to-end smoke test of any pipeline built on these tools. `bench`
//! (see [`mod@bench`]) runs the fixed suite behind the committed
//! `BENCH_*.json` baselines and diffs two such reports.

mod bench;
mod model;

use std::collections::HashMap;
use std::process::ExitCode;

use ipt_core::error::try_transpose_erased;
use ipt_core::Layout;

const USAGE: &str = "\
ipt — in-place matrix transposition (PPoPP 2014 decomposition)

USAGE:
  ipt transpose FILE --rows R --cols C --elem-size S [--layout row|col] [--out PATH]
  ipt aos2soa   FILE --structs N --fields K --elem-size S [--out PATH]
  ipt soa2aos   FILE --structs N --fields K --elem-size S [--out PATH]
  ipt gen       FILE --rows R --cols C --elem-size S [--seed X]
  ipt verify    FILE --rows R --cols C --elem-size S
  ipt info      FILE --elem-size S
  ipt bench     --suite transpose|parallel|kernels|aos|batched [--out PATH]
                [--quick] [--history DIR] [--keep N]
  ipt bench     --compare OLD.json NEW.json [--threshold PCT]
  ipt bench     --compare NEW.json --history DIR [--threshold PCT] [--window K]
  ipt model     --rows R --cols C --elem N [--algorithm c2r|r2c|auto]
                [--device cpu|k20c] [--max-divergence X]

Matrices are dense binary dumps: rows x cols elements of elem-size bytes.
`transpose` rewrites FILE in place unless --out is given. `gen` fills a
file with a position pattern; `verify` accepts a file produced by
`gen ... | transpose` and checks every element landed where the
transpose says it must. `bench` runs the fixed benchmark suite and emits
machine-readable BENCH_*.json baselines (see `ipt bench --help`).
`model` prints memsim's predicted per-phase cost shares next to the
measured phase timers for one shape and gates on their divergence (see
`ipt model --help`).

EXIT CODES:
  0  success
  2  usage error (unknown flag, missing argument, bad file)
  3  bench regression gate failed (--compare / --history)
  4  parallel transpose aborted: a worker fault was contained but the
     recovery budget (IPT_RETRY, default 0) was exhausted
  5  hang watchdog fired: a task exceeded IPT_WATCHDOG_MS and the
     process exited rather than wedge";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        return bench::main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("model") {
        return model::main(&args[1..]);
    }
    match run(&args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` options after the subcommand and file.
struct Opts {
    values: HashMap<String, String>,
}

impl Opts {
    fn parse(rest: &[String]) -> Result<Opts, String> {
        let mut values = HashMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{name}"))?;
            values.insert(name.to_string(), value.clone());
        }
        Ok(Opts { values })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn usize(&self, name: &str) -> Result<usize, String> {
        self.get(name)?
            .parse()
            .map_err(|e| format!("--{name}: {e}"))
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
            None => Ok(default),
        }
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("no subcommand")?;
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        return Ok(USAGE.to_string());
    }
    let (file, flags) = rest.split_first().ok_or("missing FILE argument")?;
    let opts = Opts::parse(flags)?;

    match cmd.as_str() {
        "transpose" => {
            let rows = opts.usize("rows")?;
            let cols = opts.usize("cols")?;
            let elem = opts.usize("elem-size")?;
            let layout = match opts.opt("layout").unwrap_or("row") {
                "row" => Layout::RowMajor,
                "col" => Layout::ColMajor,
                other => return Err(format!("--layout must be row or col, got {other}")),
            };
            let mut data = read_sized(file, rows * cols * elem)?;
            let t = std::time::Instant::now();
            try_transpose_erased(&mut data, rows, cols, elem, layout).map_err(|e| e.to_string())?;
            let dt = t.elapsed();
            let out = opts.opt("out").unwrap_or(file);
            std::fs::write(out, &data).map_err(|e| format!("writing {out}: {e}"))?;
            Ok(format!(
                "transposed {rows} x {cols} ({} bytes/elem) in {dt:.2?} ({:.3} GB/s) -> {out}",
                elem,
                (2 * data.len()) as f64 / dt.as_secs_f64() / 1e9
            ))
        }
        "aos2soa" | "soa2aos" => {
            let n = opts.usize("structs")?;
            let k = opts.usize("fields")?;
            let elem = opts.usize("elem-size")?;
            let mut data = read_sized(file, n * k * elem)?;
            // AoS = N x K row-major; SoA = its transpose.
            if cmd == "aos2soa" {
                try_transpose_erased(&mut data, n, k, elem, Layout::RowMajor)
            } else {
                try_transpose_erased(&mut data, k, n, elem, Layout::RowMajor)
            }
            .map_err(|e| e.to_string())?;
            let out = opts.opt("out").unwrap_or(file);
            std::fs::write(out, &data).map_err(|e| format!("writing {out}: {e}"))?;
            Ok(format!("{cmd}: {n} structs x {k} fields -> {out}"))
        }
        "gen" => {
            let rows = opts.usize("rows")?;
            let cols = opts.usize("cols")?;
            let elem = opts.usize("elem-size")?;
            let seed = opts.usize_or("seed", 0)? as u64;
            let mut data = vec![0u8; rows * cols * elem];
            fill_pattern(&mut data, elem, seed);
            std::fs::write(file, &data).map_err(|e| format!("writing {file}: {e}"))?;
            Ok(format!(
                "generated {rows} x {cols} pattern ({} bytes) -> {file}",
                data.len()
            ))
        }
        "verify" => {
            let rows = opts.usize("rows")?;
            let cols = opts.usize("cols")?;
            let elem = opts.usize("elem-size")?;
            let seed = opts.usize_or("seed", 0)? as u64;
            // The file should hold the transpose of a `rows x cols`
            // pattern: a cols x rows matrix whose (i, j) element is
            // pattern element j*cols + i.
            let data = read_sized(file, rows * cols * elem)?;
            for i in 0..cols {
                for j in 0..rows {
                    let want = elem_pattern(j * cols + i, elem, seed);
                    let at = (i * rows + j) * elem;
                    if data[at..at + elem] != want[..] {
                        return Err(format!(
                            "mismatch at transposed position ({i}, {j}): \
                             expected source element {}",
                            j * cols + i
                        ));
                    }
                }
            }
            Ok(format!(
                "verified: {file} is the transpose of a {rows} x {cols} pattern"
            ))
        }
        "info" => {
            let elem = opts.usize("elem-size")?;
            let len = std::fs::metadata(file)
                .map_err(|e| format!("reading {file}: {e}"))?
                .len() as usize;
            if len % elem != 0 {
                return Err(format!(
                    "{file}: {len} bytes is not a whole number of {elem}-byte elements"
                ));
            }
            let count = len / elem;
            let mut shapes: Vec<(usize, usize)> = Vec::new();
            let mut d = 1usize;
            while d * d <= count && shapes.len() < 24 {
                if count % d == 0 {
                    shapes.push((d, count / d));
                    if d * d != count {
                        shapes.push((count / d, d));
                    }
                }
                d += 1;
            }
            shapes.sort();
            let list: Vec<String> = shapes.iter().map(|(r, c)| format!("{r}x{c}")).collect();
            Ok(format!(
                "{file}: {len} bytes = {count} elements of {elem} bytes\npossible shapes: {}",
                list.join(", ")
            ))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn read_sized(path: &str, want: usize) -> Result<Vec<u8>, String> {
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if data.len() != want {
        return Err(format!(
            "{path}: expected {want} bytes for the given shape, found {}",
            data.len()
        ));
    }
    Ok(data)
}

/// The pattern element for linear index `l`: a little-endian mix of the
/// index and seed, truncated/extended to `elem` bytes.
fn elem_pattern(l: usize, elem: usize, seed: u64) -> Vec<u8> {
    let v = (l as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ seed;
    let bytes = v.to_le_bytes();
    (0..elem).map(|k| bytes[k % 8] ^ (k / 8) as u8).collect()
}

fn fill_pattern(data: &mut [u8], elem: usize, seed: u64) {
    for (l, chunk) in data.chunks_exact_mut(elem).enumerate() {
        chunk.copy_from_slice(&elem_pattern(l, elem, seed));
    }
}
