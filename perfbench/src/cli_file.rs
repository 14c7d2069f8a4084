//! The `ipt-cli` probe: `ipt-cli transpose` in place on a small pattern
//! file, one child process per call, and `ipt_core::erased` in process on
//! the same bytes. The only user surface through file I/O and the
//! type-erased path; every traced run reports its layers from here.

use crate::ledger::{pass_bytes, Ledger};
use crate::pattern;
use crate::trace::{CALL, PROBE};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// A pattern matrix stored in a file.
pub struct CliMatrix {
    path: PathBuf,
    rows: usize,
    cols: usize,
    transposed: bool,
    key: u64,
}

impl CliMatrix {
    /// Write the `rows x cols` pattern of `key` to `path`.
    pub fn create(path: &Path, rows: usize, cols: usize, key: u64) -> Result<CliMatrix, String> {
        let mut vals = vec![0u64; rows * cols];
        pattern::fill(&mut vals, key);
        let m = CliMatrix {
            path: path.to_path_buf(),
            rows,
            cols,
            transposed: false,
            key,
        };
        m.write(&vals)?;
        Ok(m)
    }

    fn write(&self, vals: &[u64]) -> Result<(), String> {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&self.path, bytes).map_err(|e| format!("{}: {e}", self.path.display()))
    }

    fn file_bytes(&self) -> usize {
        self.rows * self.cols * 8
    }

    fn shape(&self) -> (usize, usize) {
        if self.transposed {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        }
    }

    /// Run `ipt-cli transpose` on the file and return the transpose time
    /// it printed, in ms; flips the orientation when the CLI exits 0.
    fn run(&mut self, cli: &Path) -> Result<f64, String> {
        let (r, c) = self.shape();
        let out = Command::new(cli)
            .arg("transpose")
            .arg(&self.path)
            .args([
                "--rows",
                &r.to_string(),
                "--cols",
                &c.to_string(),
                "--elem-size",
                "8",
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", cli.display()))?;
        if !out.status.success() {
            return Err(format!("ipt-cli exited with {}", out.status));
        }
        self.transposed = !self.transposed;
        let text = String::from_utf8_lossy(&out.stdout);
        printed_ms(&text).ok_or_else(|| format!("no time in ipt-cli output {text:?}"))
    }

    /// One CLI run as a `cli.process` span, with the printed transpose
    /// time as a `cli.transpose` child (centred: its position inside the
    /// process is not reported).
    pub fn traced(&mut self, cli: &Path, l: &mut Ledger, req: u64) -> Result<(), String> {
        let id = l.t.begin("cli.process", CALL, req);
        let run = self.run(cli);
        l.t.end(id);
        let transpose_ms = run?;
        let span = &l.t.spans()[id];
        let dur = ((transpose_ms * 1e6) as u64).min(span.dur());
        let start = span.start + (span.dur() - dur) / 2;
        l.t.push("cli.transpose", id, start, dur);
        Ok(())
    }

    /// Check the file against the current orientation, streaming.
    pub fn verify(&self) -> Result<bool, String> {
        let err = |e: std::io::Error| format!("{}: {e}", self.path.display());
        let mut f = std::fs::File::open(&self.path).map_err(err)?;
        if f.metadata().map_err(err)?.len() != self.file_bytes() as u64 {
            return Ok(false);
        }
        let mut chunk = vec![0u8; 8 << 20];
        let mut pos = 0;
        while pos < self.file_bytes() {
            let n = chunk.len().min(self.file_bytes() - pos);
            f.read_exact(&mut chunk[..n]).map_err(err)?;
            if !pattern::check_bytes(
                &chunk[..n],
                pos / 8,
                self.rows,
                self.cols,
                self.transposed,
                self.key,
            ) {
                return Ok(false);
            }
            pos += n;
        }
        Ok(true)
    }

    /// `ipt_core::erased::transpose_erased` in process on the file's
    /// bytes, traced as a probe; returns whether the result is right.
    pub fn erased(&self, l: &mut Ledger) -> Result<bool, String> {
        let mut data =
            std::fs::read(&self.path).map_err(|e| format!("{}: {e}", self.path.display()))?;
        let (r, c) = self.shape();
        let bytes = pass_bytes::<u64>(r * c);
        let ok = l
            .traced_call("probe.erased", PROBE, |l, req| {
                l.t.span("erased.transpose_erased", req, bytes, || {
                    ipt_core::erased::transpose_erased(
                        &mut data,
                        r,
                        c,
                        8,
                        ipt_core::Layout::RowMajor,
                    )
                });
                Ok(())
            })
            .is_ok();
        Ok(ok && pattern::check_bytes(&data, 0, self.rows, self.cols, !self.transposed, self.key))
    }

    /// Delete the file.
    pub fn remove(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The duration in `transposed R x C (...) in 1.23s (...)`, in ms.
fn printed_ms(out: &str) -> Option<f64> {
    let rest = &out[out.find(" in ")? + 4..];
    let d = rest.split_whitespace().next()?;
    let split = d.find(|ch: char| !(ch.is_ascii_digit() || ch == '.'))?;
    let (num, unit) = d.split_at(split);
    let v: f64 = num.parse().ok()?;
    let scale = match unit {
        "s" => 1e3,
        "ms" => 1.0,
        "µs" | "us" => 1e-3,
        "ns" => 1e-6,
        _ => return None,
    };
    Some(v * scale)
}

#[cfg(test)]
mod tests {
    use super::printed_ms;

    #[test]
    fn reads_the_printed_duration() {
        let line = "transposed 8192 x 4096 (8 bytes/elem) in 1.23s (0.436 GB/s) -> f.bin";
        assert_eq!(printed_ms(line), Some(1230.0));
        assert_eq!(printed_ms("x in 512.50ms (1 GB/s)"), Some(512.5));
        assert_eq!(printed_ms("x in 12.00µs (1 GB/s)"), Some(0.012));
        assert_eq!(printed_ms("no duration here"), None);
    }
}
