//! Bench trend history: dated report archives and the drift gate.
//!
//! The pairwise `ipt-cli bench --compare OLD NEW` gate only sees one
//! step: a regression that creeps in at −4% per PR never trips a 10%
//! threshold, yet five such PRs cost 18%. This module turns the one-shot
//! diff into a trend subsystem:
//!
//! * **Append** ([`append`]) — each `ipt-cli bench --suite S --history
//!   DIR` run drops its `ipt-bench-report-v1` file into `DIR` under a
//!   self-describing, chronologically sortable name:
//!   `ipt-bench-<suite>-<UTCSTAMP>-<seq>-t<threads>.json` (archives from
//!   older builds end in `-<kernel>.json` and still load).
//!   Timestamps come from [`timestamp_secs`], which honors
//!   `SOURCE_DATE_EPOCH` so hermetic CI runs produce deterministic
//!   names; the zero-padded sequence number disambiguates (and orders)
//!   runs within one second.
//! * **Trend gate** ([`trend`]) — `--compare NEW --history DIR` gates
//!   the new report against the *trailing median* of the last
//!   [`DEFAULT_WINDOW`] archived medians per entry key (robust to one
//!   noisy run, unlike a single baseline file), and additionally flags
//!   **monotone drift**: at least [`DRIFT_MIN_STEPS`] consecutive
//!   declining runs whose cumulative drop exceeds the threshold, even
//!   though every adjacent pair stayed under it.
//! * **Retention** ([`prune`]) — drop the oldest archives beyond a
//!   configurable keep count, so a long-lived history directory stops
//!   growing without bound (`ipt-cli bench --keep N`).
//! * **Sparklines** ([`sparkline`]) — a per-entry ASCII trend strip for
//!   the table `ipt-cli bench` prints, so the shape of a drift is
//!   visible in a terminal or CI log without plotting anything.
//!
//! Only reports recorded with the same worker-thread count as the new
//! run participate in the gate — a 1-thread archive must not be
//! compared against a 16-thread run (the skipped count is surfaced, not
//! hidden). Unusable medians (zero/NaN, e.g. from a corrupt file) are
//! explicit failures via [`crate::report::classify_change`], never
//! silent passes.

use std::path::Path;

use crate::report::{classify_change, BenchReport};

/// Default number of trailing reports the gate aggregates per entry.
pub const DEFAULT_WINDOW: usize = 8;

/// Minimum number of consecutive declining runs before a cumulative
/// drop counts as drift. Below this, a pair of noisy runs would flag;
/// from three declining steps on, "noise" would have to strike the same
/// direction three times in a row.
pub const DRIFT_MIN_STEPS: usize = 3;

/// Seconds since the Unix epoch, honoring `SOURCE_DATE_EPOCH`.
///
/// When `SOURCE_DATE_EPOCH` is set (the reproducible-builds convention)
/// its value wins, so hermetic test and CI runs mint deterministic file
/// names; otherwise the wall clock via `std::time::SystemTime`.
pub fn timestamp_secs() -> u64 {
    if let Ok(v) = std::env::var("SOURCE_DATE_EPOCH") {
        if let Ok(secs) = v.trim().parse::<u64>() {
            return secs;
        }
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Format seconds-since-epoch as a compact UTC stamp, `YYYYMMDDThhmmssZ`
/// — fixed width, so lexicographic order is chronological order.
pub fn format_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (y, mo, d) = civil_from_days(days);
    format!(
        "{y:04}{mo:02}{d:02}T{h:02}{mi:02}{s:02}Z",
        h = rem / 3600,
        mi = rem % 3600 / 60,
        s = rem % 60
    )
}

/// Days-since-epoch to (year, month, day), proleptic Gregorian
/// (Howard Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (y + (m <= 2) as i64, m, d)
}

/// Parse an archive file name for `suite`: `Some((stamp, seq))` when it
/// matches `ipt-bench-<suite>-<stamp>-<seq>-...json` (today's
/// `-t<threads>.json` ending, or an older build's `-t<threads>-<kernel>.json`),
/// else `None`.
fn parse_filename<'a>(name: &'a str, suite: &str) -> Option<(&'a str, u64)> {
    let rest = name
        .strip_prefix("ipt-bench-")?
        .strip_prefix(suite)?
        .strip_prefix('-')?
        .strip_suffix(".json")?;
    let (stamp, rest) = rest.split_at_checked(16)?;
    let b = stamp.as_bytes();
    let digits = |r: std::ops::Range<usize>| b[r].iter().all(u8::is_ascii_digit);
    if !(digits(0..8) && b[8] == b'T' && digits(9..15) && b[15] == b'Z') {
        return None;
    }
    let seq = rest.strip_prefix('-')?.split('-').next()?.parse().ok()?;
    Some((stamp, seq))
}

/// Append `report` to the history directory `dir` with the current
/// [`timestamp_secs`], creating `dir` if needed. Returns the path of the
/// file written.
pub fn append(dir: &str, report: &BenchReport) -> Result<String, String> {
    append_at(dir, report, timestamp_secs())
}

/// [`append`] with an explicit timestamp — the testable core.
pub fn append_at(dir: &str, report: &BenchReport, unix_secs: u64) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let next_seq = 1 + scan(dir, &report.name)?
        .iter()
        .map(|f| f.seq)
        .max()
        .unwrap_or(0);
    let name = format!(
        "ipt-bench-{}-{}-{next_seq:04}-t{}.json",
        report.name,
        format_utc(unix_secs),
        report.threads,
    );
    let path = Path::new(dir).join(name);
    let path = path.to_str().ok_or("non-UTF-8 history path")?;
    report.save(path)?;
    Ok(path.to_string())
}

/// One archived report, in chronological position.
#[derive(Debug, Clone)]
pub struct HistoryFile {
    /// File name inside the history directory (not the full path).
    pub file: String,
    /// Archive sequence number parsed from the name.
    pub seq: u64,
    /// The parsed report.
    pub report: BenchReport,
}

struct ScanEntry {
    name: String,
    stamp: String,
    seq: u64,
}

fn scan(dir: &str, suite: &str) -> Result<Vec<ScanEntry>, String> {
    let mut found = Vec::new();
    for dirent in std::fs::read_dir(dir).map_err(|e| format!("reading {dir}: {e}"))? {
        let dirent = dirent.map_err(|e| format!("reading {dir}: {e}"))?;
        let name = dirent.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((stamp, seq)) = parse_filename(name, suite) {
            found.push(ScanEntry {
                name: name.to_string(),
                stamp: stamp.to_string(),
                seq,
            });
        }
    }
    // Chronological: the stamp first, the per-second sequence number as
    // the tiebreaker (a hermetic SOURCE_DATE_EPOCH run reuses one stamp).
    found.sort_by(|a, b| (&a.stamp, a.seq).cmp(&(&b.stamp, b.seq)));
    Ok(found)
}

/// Remove the oldest archived reports for `suite` from `dir` until at
/// most `keep` remain, returning the removed file names (oldest first).
///
/// The archive otherwise grows without bound — every `--history` run
/// appends a file — so retention is the caller's knob: `ipt-cli bench
/// --keep N` prunes after each append, and `scripts/bench.sh` wires a
/// default. Chronological order is the same (stamp, seq) order
/// [`load`] uses, so the reports the trend gate's window actually
/// reads are always the ones that survive. Other suites' archives (and
/// unrelated files, e.g. a legacy calibration profile stored alongside)
/// are untouched.
pub fn prune(dir: &str, suite: &str, keep: usize) -> Result<Vec<String>, String> {
    let found = scan(dir, suite)?;
    if found.len() <= keep {
        return Ok(Vec::new());
    }
    let mut removed = Vec::new();
    for f in &found[..found.len() - keep] {
        let path = Path::new(dir).join(&f.name);
        std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
        removed.push(f.name.clone());
    }
    Ok(removed)
}

/// Load every archived report for `suite` from `dir`, oldest first.
///
/// A file that matches the naming scheme but fails to parse is a hard
/// error, not a skip — a corrupt archive must not quietly shrink the
/// window the gate reasons over.
pub fn load(dir: &str, suite: &str) -> Result<Vec<HistoryFile>, String> {
    scan(dir, suite)?
        .into_iter()
        .map(|f| {
            let path = Path::new(dir).join(&f.name);
            let report = BenchReport::load(path.to_str().ok_or("non-UTF-8 history path")?)?;
            Ok(HistoryFile {
                file: f.name,
                seq: f.seq,
                report,
            })
        })
        .collect()
}

/// One entry's trend across the history window plus the new run.
#[derive(Debug, Clone)]
pub struct TrendRow {
    /// Algorithm label.
    pub algorithm: String,
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Trailing archived medians for this key, oldest first (at most the
    /// gate's window).
    pub series: Vec<f64>,
    /// The new run's median throughput, GB/s.
    pub new_gbps: f64,
    /// Median of `series` — the baseline the single-run gate uses.
    pub trailing_median: f64,
    /// Change of `new_gbps` vs `trailing_median`, percent (NaN when
    /// either is unusable; see `reason`).
    pub change_pct: f64,
    /// Single-run breach: `change_pct` past the threshold, or an
    /// unusable median.
    pub breach: bool,
    /// Monotone multi-run drift past the cumulative threshold.
    pub drift: bool,
    /// Number of consecutive declining steps ending at the new run.
    pub drift_steps: usize,
    /// Cumulative change over those declining steps, percent.
    pub drift_pct: f64,
    /// Why the row was force-flagged, when not a plain numeric breach.
    pub reason: Option<String>,
}

impl TrendRow {
    /// Whether this row fails the trend gate.
    pub fn flagged(&self) -> bool {
        self.breach || self.drift
    }

    /// ASCII sparkline over the archived series plus the new value.
    pub fn spark(&self) -> String {
        let mut seq = self.series.clone();
        seq.push(self.new_gbps);
        sparkline(&seq)
    }
}

/// The full trend-gate verdict for one new report against an archive.
#[derive(Debug, Clone)]
pub struct TrendReport {
    /// One row per new-report entry with at least one archived sample.
    pub rows: Vec<TrendRow>,
    /// Archived reports that participated (same thread count as new).
    pub reports_used: usize,
    /// Archived reports skipped for a thread-count mismatch.
    pub skipped_threads: usize,
    /// New-report entries with no archived sample (first appearance).
    pub new_only: usize,
    /// Entries of the latest participating archive absent from the new
    /// report (vanished configurations).
    pub history_only: usize,
}

impl TrendReport {
    /// Number of rows failing the gate.
    pub fn flagged(&self) -> usize {
        self.rows.iter().filter(|r| r.flagged()).count()
    }
}

/// Gate `new` against the trailing window of `history` (oldest first, as
/// returned by [`load`]): per entry key, a single-run breach is a drop
/// of more than `threshold_pct` percent below the trailing median of the
/// last `window` archived medians, and drift is at least
/// [`DRIFT_MIN_STEPS`] consecutive declining runs (ending at the new
/// one) whose cumulative drop exceeds the same threshold.
pub fn trend(
    history: &[HistoryFile],
    new: &BenchReport,
    threshold_pct: f64,
    window: usize,
) -> TrendReport {
    let window = window.max(1);
    let usable: Vec<&BenchReport> = history
        .iter()
        .map(|h| &h.report)
        .filter(|r| r.threads == new.threads)
        .collect();
    let skipped_threads = history.len() - usable.len();
    let mut rows = Vec::new();
    let mut new_only = 0;
    for e in &new.entries {
        let mut series: Vec<f64> = usable
            .iter()
            .filter_map(|r| {
                r.entries
                    .iter()
                    .find(|h| h.key() == e.key())
                    .map(|h| h.median_gbps)
            })
            .collect();
        if series.is_empty() {
            new_only += 1;
            continue;
        }
        if series.len() > window {
            series.drain(..series.len() - window);
        }
        let trailing_median = median(&series);
        let (change_pct, breach, reason) =
            classify_change(trailing_median, e.median_gbps, threshold_pct);
        let mut seq = series.clone();
        seq.push(e.median_gbps);
        let (drift, drift_steps, drift_pct) = detect_drift(&seq, threshold_pct);
        rows.push(TrendRow {
            algorithm: e.algorithm.clone(),
            m: e.m,
            n: e.n,
            series,
            new_gbps: e.median_gbps,
            trailing_median,
            change_pct,
            breach,
            drift,
            drift_steps,
            drift_pct,
            reason,
        });
    }
    let history_only = usable.last().map_or(0, |latest| {
        latest
            .entries
            .iter()
            .filter(|h| !new.entries.iter().any(|e| e.key() == h.key()))
            .count()
    });
    TrendReport {
        rows,
        reports_used: usable.len(),
        skipped_threads,
        new_only,
        history_only,
    }
}

/// Find the longest run of consecutive strictly declining steps ending
/// at the last element of `seq`, over finite positive values only:
/// `(drifting, steps, cumulative_change_pct)`. Drift fires when the run
/// spans at least [`DRIFT_MIN_STEPS`] steps *and* its cumulative drop
/// exceeds `threshold_pct` — each step may individually sit well under
/// the single-run gate.
fn detect_drift(seq: &[f64], threshold_pct: f64) -> (bool, usize, f64) {
    let ok = |x: f64| x.is_finite() && x > 0.0;
    let mut steps = 0;
    for i in (1..seq.len()).rev() {
        if ok(seq[i - 1]) && ok(seq[i]) && seq[i] < seq[i - 1] {
            steps += 1;
        } else {
            break;
        }
    }
    if steps < DRIFT_MIN_STEPS {
        return (false, steps, 0.0);
    }
    let start = seq[seq.len() - 1 - steps];
    let end = seq[seq.len() - 1];
    let pct = (end - start) / start * 100.0;
    (pct < -threshold_pct, steps, pct)
}

fn median(xs: &[f64]) -> f64 {
    crate::harness::median(xs)
}

/// Render a value series as a fixed-ramp ASCII sparkline, one character
/// per value, normalized to the series' own min..max (`_` lowest, `#`
/// highest, `=` for a flat series, `!` for a non-finite value).
pub fn sparkline(xs: &[f64]) -> String {
    const RAMP: &[u8] = b"_.-=+*#";
    let finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    xs.iter()
        .map(|&x| {
            if !x.is_finite() {
                '!'
            } else if hi <= lo {
                '='
            } else {
                let t = (x - lo) / (hi - lo) * (RAMP.len() - 1) as f64;
                RAMP[t.round() as usize] as char
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::BenchEntry;

    fn entry(alg: &str, median: f64) -> BenchEntry {
        BenchEntry {
            algorithm: alg.to_string(),
            m: 64,
            n: 32,
            elem_bytes: 8,
            samples: 5,
            median_gbps: median,
            p10_gbps: median,
            p90_gbps: median,
            phases: Vec::new(),
            model: None,
            recovery: None,
        }
    }

    fn report(suite: &str, threads: usize, medians: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            name: suite.to_string(),
            threads,
            entries: medians.iter().map(|&(a, x)| entry(a, x)).collect(),
        }
    }

    fn hist(reports: Vec<BenchReport>) -> Vec<HistoryFile> {
        reports
            .into_iter()
            .enumerate()
            .map(|(i, report)| HistoryFile {
                file: format!("synthetic-{i}"),
                seq: i as u64 + 1,
                report,
            })
            .collect()
    }

    #[test]
    fn utc_stamp_formats_known_epochs() {
        assert_eq!(format_utc(0), "19700101T000000Z");
        assert_eq!(format_utc(1_700_000_000), "20231114T221320Z");
        // Leap-year day: 2024-02-29 12:00:00 UTC.
        assert_eq!(format_utc(1_709_208_000), "20240229T120000Z");
    }

    #[test]
    fn filename_parser_accepts_own_format_and_rejects_noise() {
        let name = "ipt-bench-transpose-20231114T221320Z-0007-t4.json";
        assert_eq!(
            parse_filename(name, "transpose"),
            Some(("20231114T221320Z", 7))
        );
        assert_eq!(parse_filename(name, "parallel"), None);
        // Older builds appended a kernel stamp; those archives still load.
        let old = "ipt-bench-transpose-20231114T221320Z-0007-t4-auto.json";
        assert_eq!(
            parse_filename(old, "transpose"),
            Some(("20231114T221320Z", 7))
        );
        for bad in [
            "BENCH_transpose.json",
            "ipt-bench-transpose-garbage-0001-t1-auto.json",
            "ipt-bench-transpose-20231114T221320Z-0001-t1-auto.txt",
            "ipt-bench-transpose-20231114T221320Z-x-t1-auto.json",
        ] {
            assert_eq!(parse_filename(bad, "transpose"), None, "{bad}");
        }
    }

    #[test]
    fn append_allocates_monotone_seq_and_load_sorts_chronologically() {
        let dir = std::env::temp_dir().join("ipt_bench_history_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap().to_string();
        // Same stamp (hermetic SOURCE_DATE_EPOCH case): seq disambiguates.
        let p1 = append_at(&dir, &report("t", 1, &[("c2r", 1.0)]), 100).unwrap();
        let p2 = append_at(&dir, &report("t", 1, &[("c2r", 2.0)]), 100).unwrap();
        let p3 = append_at(&dir, &report("t", 1, &[("c2r", 3.0)]), 200).unwrap();
        assert!(p1.ends_with("-0001-t1.json"), "{p1}");
        assert!(p2.contains("-0002-"), "{p2}");
        assert!(p3.ends_with("-0003-t1.json"), "{p3}");
        // A different suite in the same dir stays invisible to this one.
        append_at(&dir, &report("other", 1, &[("c2r", 9.0)]), 50).unwrap();
        let loaded = load(&dir, "t").unwrap();
        let medians: Vec<f64> = loaded
            .iter()
            .map(|h| h.report.entries[0].median_gbps)
            .collect();
        assert_eq!(medians, [1.0, 2.0, 3.0]);
        assert_eq!(load(&dir, "other").unwrap().len(), 1);
        assert!(load(&dir, "absent").unwrap().is_empty());
    }

    #[test]
    fn prune_drops_oldest_first_and_spares_other_suites() {
        let dir = std::env::temp_dir().join("ipt_bench_history_prune");
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_str().unwrap().to_string();
        // Deterministic SOURCE_DATE_EPOCH-style fixtures: one fixed
        // stamp, seq disambiguates; plus an older distinct-stamp file.
        append_at(&dir, &report("t", 1, &[("c2r", 1.0)]), 50).unwrap();
        for x in [2.0, 3.0, 4.0] {
            append_at(&dir, &report("t", 1, &[("c2r", x)]), 100).unwrap();
        }
        append_at(&dir, &report("other", 1, &[("c2r", 9.0)]), 10).unwrap();
        let unrelated = Path::new(&dir).join("ipt-calibration.json");
        std::fs::write(&unrelated, "{}\n").unwrap();

        // Under the cap: nothing removed.
        assert!(prune(&dir, "t", 4).unwrap().is_empty());
        // keep = 2 removes the two chronologically oldest archives.
        let removed = prune(&dir, "t", 2).unwrap();
        assert_eq!(removed.len(), 2);
        assert!(removed[0].contains("19700101T000050Z"), "{:?}", removed);
        assert!(removed[1].contains("-0002-"), "{:?}", removed);
        let survivors: Vec<f64> = load(&dir, "t")
            .unwrap()
            .iter()
            .map(|h| h.report.entries[0].median_gbps)
            .collect();
        assert_eq!(survivors, [3.0, 4.0]);
        // The other suite's archive and the unrelated file survive.
        assert_eq!(load(&dir, "other").unwrap().len(), 1);
        assert!(unrelated.exists());
        // keep = 0 empties the suite's archive entirely.
        assert_eq!(prune(&dir, "t", 0).unwrap().len(), 2);
        assert!(load(&dir, "t").unwrap().is_empty());
        // Sequence numbering continues from 1 again after a full prune.
        let p = append_at(&dir, &report("t", 1, &[("c2r", 5.0)]), 100).unwrap();
        assert!(p.contains("-0001-"), "{p}");
    }

    #[test]
    fn prune_errors_on_a_missing_directory() {
        assert!(prune("/nonexistent/ipt-history", "t", 3).is_err());
    }

    #[test]
    fn creeping_regression_drifts_past_the_gate_that_each_step_passes() {
        // Five runs, each -4%: every adjacent pair (and even the new run
        // vs the trailing median) is inside a 10% single-run gate, but
        // the cumulative -15% must flag as drift.
        let meds = [100.0, 96.0, 92.16, 88.4736];
        let history = hist(
            meds.iter()
                .map(|&x| report("t", 1, &[("c2r", x)]))
                .collect(),
        );
        let new = report("t", 1, &[("c2r", 84.934656)]);
        let t = trend(&history, &new, 10.0, DEFAULT_WINDOW);
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert!(!row.breach, "single-run gate passes: {:?}", row.change_pct);
        assert!(row.drift, "cumulative drift must flag");
        assert_eq!(row.drift_steps, 4);
        assert!(
            (row.drift_pct + 15.065344).abs() < 1e-6,
            "{}",
            row.drift_pct
        );
        assert_eq!(t.flagged(), 1);
    }

    #[test]
    fn single_run_breach_against_trailing_median() {
        // One outlier-slow history run does not drag the baseline down:
        // the trailing median of [10, 10, 2, 10] is 10, so a new 8.5
        // (-15%) breaches even though the *latest* archived run was 2.
        let history = hist(
            [10.0, 10.0, 2.0, 10.0]
                .iter()
                .map(|&x| report("t", 1, &[("c2r", x)]))
                .collect(),
        );
        let new = report("t", 1, &[("c2r", 8.5)]);
        let t = trend(&history, &new, 10.0, DEFAULT_WINDOW);
        let row = &t.rows[0];
        assert_eq!(row.trailing_median, 10.0);
        assert!(row.breach);
        assert!(!row.drift);
    }

    #[test]
    fn recovery_or_flat_run_breaks_a_drift_chain() {
        // An uptick resets the monotone run: only 2 declining steps
        // remain, under DRIFT_MIN_STEPS.
        let history = hist(
            [100.0, 96.0, 97.0, 93.0]
                .iter()
                .map(|&x| report("t", 1, &[("c2r", x)]))
                .collect(),
        );
        let new = report("t", 1, &[("c2r", 90.0)]);
        let t = trend(&history, &new, 10.0, DEFAULT_WINDOW);
        assert!(!t.rows[0].drift);
        assert_eq!(t.rows[0].drift_steps, 2);
    }

    #[test]
    fn zero_history_median_is_an_explicit_failure() {
        let history = hist(vec![report("t", 1, &[("c2r", 0.0)])]);
        let new = report("t", 1, &[("c2r", 5.0)]);
        let t = trend(&history, &new, 10.0, DEFAULT_WINDOW);
        assert!(t.rows[0].breach);
        assert!(t.rows[0].reason.as_deref().unwrap().contains("baseline"));
    }

    #[test]
    fn thread_mismatch_and_one_sided_entries_are_counted() {
        let history = hist(vec![
            report("t", 4, &[("c2r", 10.0)]),                // skipped: threads
            report("t", 1, &[("c2r", 10.0), ("gone", 3.0)]), // used
        ]);
        let new = report("t", 1, &[("c2r", 10.0), ("fresh", 1.0)]);
        let t = trend(&history, &new, 10.0, DEFAULT_WINDOW);
        assert_eq!(t.reports_used, 1);
        assert_eq!(t.skipped_threads, 1);
        assert_eq!(t.new_only, 1);
        assert_eq!(t.history_only, 1);
        assert_eq!(t.flagged(), 0);
    }

    #[test]
    fn window_limits_how_far_back_the_gate_looks() {
        // Ancient fast runs outside the window must not flag today.
        let mut meds = vec![100.0; 6];
        meds.extend([10.0, 10.0, 10.0]);
        let history = hist(
            meds.iter()
                .map(|&x| report("t", 1, &[("c2r", x)]))
                .collect(),
        );
        let new = report("t", 1, &[("c2r", 10.0)]);
        let t = trend(&history, &new, 10.0, 3);
        assert_eq!(t.rows[0].series, [10.0, 10.0, 10.0]);
        assert!(!t.rows[0].flagged());
    }

    #[test]
    fn sparkline_is_deterministic_and_spans_the_ramp() {
        assert_eq!(sparkline(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), "_.-=+*#");
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "===");
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]), "_!#");
        assert_eq!(sparkline(&[]), "");
    }
}
