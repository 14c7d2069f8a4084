//! Machine-readable benchmark baselines: the `BENCH_*.json` schema.
//!
//! The repo keeps committed performance baselines at the repo root
//! (`BENCH_transpose.json`, `BENCH_parallel.json`) so regressions show up
//! in review instead of in production. This module defines the typed
//! report ([`BenchReport`] / [`BenchEntry`]), its stable JSON encoding
//! (schema tag `ipt-bench-report-v1`, built on [`ipt_core::json`]), and the
//! [`compare`] routine behind `ipt-cli bench --compare`, which flags any
//! entry whose median throughput (the paper's Eq. 37 metric) dropped by
//! more than a threshold.

use ipt_core::json::Json;

/// Schema tag written into (and required from) every report file.
pub const SCHEMA: &str = "ipt-bench-report-v1";

/// Wall time attributed to one decomposition phase during an entry's
/// measurement (from `ipt_pool::stats` deltas around the timed region).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreak {
    /// Phase name (`pre_rotate`, `row_shuffle`, `col_shuffle`,
    /// `post_rotate`).
    pub name: String,
    /// Number of times the phase ran while this entry was measured.
    pub calls: u64,
    /// Total wall time in nanoseconds across those runs.
    pub nanos: u64,
    /// Payload bytes the phase reported touching (read + write of every
    /// element per executed pass, via
    /// `ipt_pool::stats::record_phase_bytes`); `0` in reports written
    /// before this field existed.
    pub bytes: u64,
}

/// One phase's predicted-vs-measured share pair inside a [`ModelBreak`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPhase {
    /// Phase name (`pre_rotate`, `row_shuffle`, `col_shuffle`,
    /// `post_rotate`).
    pub name: String,
    /// Model-predicted fraction of total transpose time, in `[0, 1]`.
    pub predicted: f64,
    /// Measured wall-time fraction over the same phases, in `[0, 1]`.
    pub measured: f64,
}

/// The phase-attributed cost-model stamp `bench --model` adds to an
/// entry: `memsim::phases` predicted shares next to the measured
/// wall-time shares, with the agreement summaries (see `MODEL.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelBreak {
    /// Device preset the prediction used (`"cpu"` or `"k20c"`).
    pub device: String,
    /// Total variation distance between predicted and measured share
    /// distributions, in `[0, 1]` (0 = identical splits).
    pub divergence: f64,
    /// Whether predicted and measured phase cost orderings agree.
    pub rank_agrees: bool,
    /// Per-phase share pairs, prediction order first.
    pub phases: Vec<ModelPhase>,
}

impl ModelBreak {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", Json::Str(self.device.clone())),
            ("divergence", Json::Num(self.divergence)),
            ("rank_agrees", Json::Bool(self.rank_agrees)),
            (
                "model_phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("name", Json::Str(p.name.clone())),
                                ("predicted", Json::Num(p.predicted)),
                                ("measured", Json::Num(p.measured)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<ModelBreak, String> {
        Ok(ModelBreak {
            device: v
                .get("device")
                .and_then(Json::as_str)
                .ok_or("model missing \"device\"")?
                .to_string(),
            divergence: v
                .get("divergence")
                .and_then(Json::as_f64)
                .ok_or("model missing \"divergence\"")?,
            rank_agrees: v
                .get("rank_agrees")
                .and_then(Json::as_bool)
                .ok_or("model missing \"rank_agrees\"")?,
            phases: v
                .get("model_phases")
                .and_then(Json::as_arr)
                .ok_or("model missing \"model_phases\"")?
                .iter()
                .map(|p| {
                    Ok(ModelPhase {
                        name: p
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("model phase missing \"name\"")?
                            .to_string(),
                        predicted: p
                            .get("predicted")
                            .and_then(Json::as_f64)
                            .ok_or("model phase missing \"predicted\"")?,
                        measured: p
                            .get("measured")
                            .and_then(Json::as_f64)
                            .ok_or("model phase missing \"measured\"")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        })
    }
}

/// The self-healing layer's activity while an entry was measured (deltas
/// of `ipt_pool::stats` recovery counters): how many retry rungs ran and
/// how many ops ultimately recovered. `None` for fault-free measurements
/// (the overwhelmingly common case) and for reports written before the
/// recovery layer existed — a stamped entry is a red flag that faults
/// fired *during* the measurement. Reports from before the retry ladder
/// lost its scalar-pinned rung also carry a `"degraded"` tally; it is
/// ignored on load.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryBreak {
    /// Retry rungs climbed during measurement (parallel re-runs plus
    /// sequential-redo rungs).
    pub retries: u64,
    /// Ops that failed at least once and still completed.
    pub recovered: u64,
}

impl RecoveryBreak {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("retries", Json::Num(self.retries as f64)),
            ("recovered", Json::Num(self.recovered as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<RecoveryBreak, String> {
        let int = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("recovery missing {k:?}"))
        };
        Ok(RecoveryBreak {
            retries: int("retries")?,
            recovered: int("recovered")?,
        })
    }
}

/// One measured configuration: an algorithm on a fixed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Algorithm label (e.g. `c2r`, `r2c`, `c2r_parallel`).
    pub algorithm: String,
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Number of timed samples the statistics summarize.
    pub samples: usize,
    /// Median throughput in GB/s (Eq. 37: `2*m*n*s / t`).
    pub median_gbps: f64,
    /// 10th-percentile throughput in GB/s (a slow-tail indicator).
    pub p10_gbps: f64,
    /// 90th-percentile throughput in GB/s.
    pub p90_gbps: f64,
    /// Per-phase wall-time breakdown (empty when the algorithm doesn't
    /// report phases, e.g. single-threaded cycle-following).
    pub phases: Vec<PhaseBreak>,
    /// Predicted-vs-measured phase-share stamp (`bench --model`); `None`
    /// for plain runs and reports written before the model existed.
    pub model: Option<ModelBreak>,
    /// Recovery-ladder counters for the measurement (`None` for
    /// fault-free runs — any stamp means faults fired mid-measurement).
    pub recovery: Option<RecoveryBreak>,
}

impl BenchEntry {
    /// The identity key entries are matched on across two reports.
    pub fn key(&self) -> (String, usize, usize, usize) {
        (self.algorithm.clone(), self.m, self.n, self.elem_bytes)
    }

    fn to_json(&self) -> Json {
        let phase_total: u64 = self.phases.iter().map(|p| p.nanos).sum();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("name", Json::Str(p.name.clone())),
                    ("calls", Json::Num(p.calls as f64)),
                    ("nanos", Json::Num(p.nanos as f64)),
                    ("bytes", Json::Num(p.bytes as f64)),
                    (
                        "fraction",
                        Json::Num(if phase_total > 0 {
                            p.nanos as f64 / phase_total as f64
                        } else {
                            0.0
                        }),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("m", Json::Num(self.m as f64)),
            ("n", Json::Num(self.n as f64)),
            ("elem_bytes", Json::Num(self.elem_bytes as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("median_gbps", Json::Num(self.median_gbps)),
            ("p10_gbps", Json::Num(self.p10_gbps)),
            ("p90_gbps", Json::Num(self.p90_gbps)),
            ("phases", Json::Arr(phases)),
        ];
        if let Some(model) = &self.model {
            fields.push(("model", model.to_json()));
        }
        if let Some(recovery) = &self.recovery {
            fields.push(("recovery", recovery.to_json()));
        }
        Json::obj(fields)
    }

    fn from_json(v: &Json) -> Result<BenchEntry, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("entry missing {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k:?} not a number"))
        };
        let int = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("{k:?} not a non-negative integer"))
        };
        let phases = match v.get("phases") {
            None => Vec::new(),
            Some(p) => p
                .as_arr()
                .ok_or("\"phases\" not an array")?
                .iter()
                .map(|p| {
                    Ok(PhaseBreak {
                        name: p
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("phase missing \"name\"")?
                            .to_string(),
                        calls: p.get("calls").and_then(Json::as_u64).unwrap_or(0),
                        nanos: p.get("nanos").and_then(Json::as_u64).unwrap_or(0),
                        bytes: p.get("bytes").and_then(Json::as_u64).unwrap_or(0),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        let model = match v.get("model") {
            None => None,
            Some(m) => Some(ModelBreak::from_json(m)?),
        };
        let recovery = match v.get("recovery") {
            None => None,
            Some(r) => Some(RecoveryBreak::from_json(r)?),
        };
        Ok(BenchEntry {
            algorithm: field("algorithm")?
                .as_str()
                .ok_or("\"algorithm\" not a string")?
                .to_string(),
            m: int("m")? as usize,
            n: int("n")? as usize,
            elem_bytes: int("elem_bytes")? as usize,
            samples: int("samples")? as usize,
            median_gbps: num("median_gbps")?,
            p10_gbps: num("p10_gbps")?,
            p90_gbps: num("p90_gbps")?,
            phases,
            model,
            recovery,
        })
    }
}

/// A full benchmark report: one suite run on one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Suite name (`transpose`, `parallel`, ...); `BENCH_<name>.json`.
    pub name: String,
    /// Worker thread count the suite ran with.
    pub threads: usize,
    /// One entry per measured (algorithm, shape) pair.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Encode as a [`Json`] document (stable key and entry order).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("name", Json::Str(self.name.clone())),
            ("threads", Json::Num(self.threads as f64)),
            (
                "entries",
                Json::Arr(self.entries.iter().map(BenchEntry::to_json).collect()),
            ),
        ])
    }

    /// Decode from a parsed [`Json`] document, checking the schema tag.
    /// Keys of retired stamps that older reports carry
    /// (`"dispatch_tier"`, `"calibration"`) are ignored.
    pub fn from_json(v: &Json) -> Result<BenchReport, String> {
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?} (want {SCHEMA:?})")),
            None => return Err(format!("missing \"schema\" tag (want {SCHEMA:?})")),
        }
        Ok(BenchReport {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .ok_or("missing \"name\"")?
                .to_string(),
            threads: v
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("missing \"threads\"")? as usize,
            entries: v
                .get("entries")
                .and_then(Json::as_arr)
                .ok_or("missing \"entries\"")?
                .iter()
                .map(BenchEntry::from_json)
                .collect::<Result<Vec<_>, String>>()?,
        })
    }

    /// Serialize and write to `path`.
    ///
    /// Fails (without writing) if any statistic is non-finite — a NaN or
    /// ±inf throughput, e.g. from a zero-duration sample, must error at
    /// write time rather than corrupt a baseline that every later
    /// `--compare` run silently trusts.
    pub fn save(&self, path: &str) -> Result<(), String> {
        let text = self
            .to_json()
            .render_checked()
            .map_err(|e| format!("report {:?} is corrupt: {e}", self.name))?;
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
    }

    /// Why a throughput comparison of `new` against this baseline would
    /// be meaningless: the runs measured different machine
    /// configurations. `Some(reason)` when the worker-thread counts
    /// differ (a 4-thread run gated against a 1-core baseline reports
    /// bogus regressions/improvements).
    pub fn stamp_mismatch(&self, new: &BenchReport) -> Option<String> {
        if self.threads != new.threads {
            return Some(format!(
                "environment stamps disagree: baseline ran with {} thread(s), \
                 candidate with {} — regenerate the baseline on this configuration",
                self.threads, new.threads
            ));
        }
        None
    }

    /// Read and parse `path`.
    pub fn load(path: &str) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        BenchReport::from_json(&doc).map_err(|e| format!("{path}: {e}"))
    }
}

/// The comparison of one entry across two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Algorithm label.
    pub algorithm: String,
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Baseline (old) median throughput, GB/s.
    pub old_gbps: f64,
    /// Candidate (new) median throughput, GB/s.
    pub new_gbps: f64,
    /// Relative change in percent (`+` is faster, `-` is slower). NaN
    /// when either median is unusable — `reason` explains which.
    pub change_pct: f64,
    /// Whether the row fails the gate: the slowdown exceeds the
    /// threshold, or a median is unusable (see `reason`).
    pub regressed: bool,
    /// Why the row was force-flagged independent of `change_pct` (a
    /// non-finite or non-positive median); `None` for a plain numeric
    /// diff.
    pub reason: Option<String>,
}

/// The result of matching two reports entry-by-entry: the per-entry rows
/// plus counts of entries that exist in only one of the two files, which
/// the gate's caller must surface — silently dropping them would let a
/// renamed or vanished configuration slip past review.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per entry key present in both reports.
    pub rows: Vec<CompareRow>,
    /// Entries present only in the old report (removed configurations).
    pub old_only: usize,
    /// Entries present only in the new report (added configurations).
    pub new_only: usize,
    /// When `Some`, the whole comparison was skipped (no rows, nothing
    /// gated) because the two reports' environment stamps disagree — see
    /// [`BenchReport::stamp_mismatch`]. The caller must surface the
    /// reason; a skipped gate is not a passed gate.
    pub skipped: Option<String>,
}

impl Comparison {
    /// Number of rows failing the gate.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }
}

/// Classify a single old-vs-new median pair against a threshold:
/// `(change_pct, regressed, reason)`.
///
/// A baseline that is NaN, ±inf, zero or negative can never legitimately
/// describe a throughput, so it is treated as an explicit failure
/// (`regressed = true` with a reason) rather than a 0% change — a corrupt
/// or zeroed-out baseline must not be able to mask a real regression.
/// The same applies to an unusable *candidate* median. Shared by the
/// pairwise [`compare`] gate and the trend gate in [`crate::history`].
pub fn classify_change(
    old_gbps: f64,
    new_gbps: f64,
    threshold_pct: f64,
) -> (f64, bool, Option<String>) {
    if !old_gbps.is_finite() || old_gbps <= 0.0 {
        return (
            f64::NAN,
            true,
            Some(format!(
                "baseline median {old_gbps} GB/s is not a positive finite throughput \
                 (corrupt baseline? regenerate it)"
            )),
        );
    }
    if !new_gbps.is_finite() || new_gbps <= 0.0 {
        return (
            f64::NAN,
            true,
            Some(format!(
                "candidate median {new_gbps} GB/s is not a positive finite throughput"
            )),
        );
    }
    let change_pct = (new_gbps - old_gbps) / old_gbps * 100.0;
    (change_pct, change_pct < -threshold_pct, None)
}

/// Match entries of `new` against `old` by (algorithm, m, n, elem_bytes)
/// and flag any whose median throughput dropped by more than
/// `threshold_pct` percent (or whose medians are unusable, see
/// [`classify_change`]). Entries present in only one report produce no
/// row but are counted in the returned [`Comparison`]. When the two
/// reports' environment stamps disagree ([`BenchReport::stamp_mismatch`])
/// nothing is gated: the result carries the skip reason instead of rows
/// full of bogus cross-configuration diffs.
pub fn compare(old: &BenchReport, new: &BenchReport, threshold_pct: f64) -> Comparison {
    if let Some(reason) = old.stamp_mismatch(new) {
        return Comparison {
            rows: Vec::new(),
            old_only: 0,
            new_only: 0,
            skipped: Some(reason),
        };
    }
    let mut rows = Vec::new();
    let mut new_only = 0;
    for e_new in &new.entries {
        let Some(e_old) = old.entries.iter().find(|e| e.key() == e_new.key()) else {
            new_only += 1;
            continue;
        };
        let (change_pct, regressed, reason) =
            classify_change(e_old.median_gbps, e_new.median_gbps, threshold_pct);
        rows.push(CompareRow {
            algorithm: e_new.algorithm.clone(),
            m: e_new.m,
            n: e_new.n,
            old_gbps: e_old.median_gbps,
            new_gbps: e_new.median_gbps,
            change_pct,
            regressed,
            reason,
        });
    }
    let old_only = old
        .entries
        .iter()
        .filter(|e| !new.entries.iter().any(|n| n.key() == e.key()))
        .count();
    Comparison {
        rows,
        old_only,
        new_only,
        skipped: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(alg: &str, m: usize, n: usize, median: f64) -> BenchEntry {
        BenchEntry {
            algorithm: alg.to_string(),
            m,
            n,
            elem_bytes: 8,
            samples: 5,
            median_gbps: median,
            p10_gbps: median * 0.9,
            p90_gbps: median * 1.1,
            phases: vec![
                PhaseBreak {
                    name: "row_shuffle".to_string(),
                    calls: 5,
                    nanos: 1_000,
                    bytes: 2_048,
                },
                PhaseBreak {
                    name: "col_shuffle".to_string(),
                    calls: 5,
                    nanos: 3_000,
                    bytes: 2_048,
                },
            ],
            model: None,
            recovery: None,
        }
    }

    /// Recursively delete every object key named `key` — simulates a
    /// baseline written before that field existed.
    fn drop_keys(v: &mut Json, key: &str) {
        match v {
            Json::Obj(pairs) => {
                pairs.retain(|(k, _)| k != key);
                for (_, v) in pairs {
                    drop_keys(v, key);
                }
            }
            Json::Arr(items) => {
                for v in items {
                    drop_keys(v, key);
                }
            }
            _ => {}
        }
    }

    fn model_break() -> ModelBreak {
        ModelBreak {
            device: "cpu".to_string(),
            divergence: 0.12,
            rank_agrees: true,
            phases: vec![
                ModelPhase {
                    name: "row_shuffle".to_string(),
                    predicted: 0.3,
                    measured: 0.25,
                },
                ModelPhase {
                    name: "col_shuffle".to_string(),
                    predicted: 0.7,
                    measured: 0.75,
                },
            ],
        }
    }

    fn recovery_break() -> RecoveryBreak {
        RecoveryBreak {
            retries: 3,
            recovered: 2,
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            name: "test".to_string(),
            threads: 4,
            entries,
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let r = report(vec![
            entry("c2r", 192, 256, 3.25),
            entry("r2c", 64, 64, 1.5),
        ]);
        let text = r.to_json().render();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Stable output: re-rendering the parsed document is byte-identical.
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn json_keys_appear_in_schema_order() {
        let mut e = entry("c2r", 8, 4, 1.0);
        e.model = Some(model_break());
        e.recovery = Some(recovery_break());
        let text = report(vec![e]).to_json().render();
        let order = [
            "\"schema\"",
            "\"name\"",
            "\"threads\"",
            "\"entries\"",
            "\"algorithm\"",
            "\"m\"",
            "\"n\"",
            "\"elem_bytes\"",
            "\"samples\"",
            "\"median_gbps\"",
            "\"p10_gbps\"",
            "\"p90_gbps\"",
            "\"phases\"",
            "\"bytes\"",
            "\"fraction\"",
            "\"model\"",
            "\"device\"",
            "\"divergence\"",
            "\"rank_agrees\"",
            "\"model_phases\"",
            "\"predicted\"",
            "\"measured\"",
            "\"recovery\"",
            "\"retries\"",
            "\"recovered\"",
        ];
        let mut last = 0;
        for key in order {
            let at = text.find(key).unwrap_or_else(|| panic!("{key} missing"));
            assert!(at > last, "{key} out of order in:\n{text}");
            last = at;
        }
    }

    #[test]
    fn model_stamp_round_trips_and_stays_optional() {
        let mut e = entry("c2r", 192, 256, 3.0);
        e.model = Some(model_break());
        let r = report(vec![e]);
        let text = r.to_json().render();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Entries without a model stamp (all pre-existing baselines)
        // still load, with model = None and bytes = 0.
        let plain = report(vec![entry("c2r", 8, 4, 1.0)]);
        let mut stripped = plain.clone();
        for e in &mut stripped.entries {
            for p in &mut e.phases {
                p.bytes = 0;
            }
        }
        let mut doc = Json::parse(&plain.to_json().render()).unwrap();
        drop_keys(&mut doc, "bytes");
        let back = BenchReport::from_json(&doc).unwrap();
        assert_eq!(back, stripped);
        assert!(back.entries[0].model.is_none());
    }

    #[test]
    fn retired_sched_stamp_still_loads() {
        // Reports written while the cycle-bundle scheduler existed carry
        // a "sched" block per entry; they must still load, the block
        // ignored.
        let r = report(vec![entry("r2c_parallel_plain", 65536, 8, 4.0)]);
        let mut doc = Json::parse(&r.to_json().render()).unwrap();
        let sched = Json::parse(
            r#"{"schedules": 5, "bundles": 20, "max_weight": 1024, "min_weight": 896}"#,
        )
        .unwrap();
        let Json::Obj(top) = &mut doc else {
            panic!("report is not an object");
        };
        let Some((_, Json::Arr(entries))) = top.iter_mut().find(|(k, _)| k == "entries") else {
            panic!("entries array missing");
        };
        let Json::Obj(fields) = &mut entries[0] else {
            panic!("entry is not an object");
        };
        fields.push(("sched".to_string(), sched));
        assert_eq!(BenchReport::from_json(&doc).unwrap(), r);
    }

    #[test]
    fn recovery_stamp_round_trips_and_stays_optional() {
        let mut e = entry("c2r_parallel", 192, 256, 2.0);
        e.recovery = Some(recovery_break());
        let r = report(vec![e]);
        let text = r.to_json().render();
        let back = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // Baselines written before the recovery stamp existed still load.
        let mut doc = Json::parse(&text).unwrap();
        drop_keys(&mut doc, "recovery");
        let back = BenchReport::from_json(&doc).unwrap();
        assert!(back.entries[0].recovery.is_none());
    }

    #[test]
    fn retired_scalar_rung_tally_still_loads() {
        // Reports written while the retry ladder had a scalar-pinned rung
        // carry a third "degraded" tally in each "recovery" block; they
        // must still load, the tally ignored, and compare as usual.
        let mut e = entry("r2c_parallel", 65536, 8, 4.0);
        e.recovery = Some(recovery_break());
        let r = report(vec![e]);
        let text = r.to_json().render().replacen(
            "\"recovered\": 2",
            "\"recovered\": 2, \"degraded\": 1",
            1,
        );
        assert!(text.contains("\"degraded\""), "legacy key not spliced in");
        let old = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(old, r);
        let cmp = compare(&old, &r, 10.0);
        assert!(cmp.skipped.is_none(), "{:?}", cmp.skipped);
        assert_eq!((cmp.rows.len(), cmp.regressions()), (1, 0));
    }

    #[test]
    fn compare_skips_on_thread_stamp_mismatch() {
        let old = report(vec![entry("c2r", 8, 8, 10.0)]);
        let mut new = report(vec![entry("c2r", 8, 8, 0.1)]);
        new.threads = 8;
        let cmp = compare(&old, &new, 10.0);
        let reason = cmp.skipped.as_deref().expect("mismatch must skip");
        assert!(reason.contains("thread"), "{reason}");
        assert!(cmp.rows.is_empty());
        assert_eq!(cmp.regressions(), 0);
    }

    #[test]
    fn calibrated_vs_static_is_still_comparable() {
        // Reports and history archives written while a per-host
        // calibrated dispatch tier existed carry its stamp plus a profile
        // hash. They must still load, compare and trend against today's
        // static runs — that pairing must never skip.
        let entries = report(vec![entry("c2r", 8, 8, 10.0)])
            .to_json()
            .get("entries")
            .unwrap()
            .clone();
        let doc = Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("name", Json::Str("test".to_string())),
            ("threads", Json::Num(4.0)),
            ("dispatch_tier", Json::Str("calibrated".to_string())),
            ("calibration", Json::Str("00d1f2e3a4b5c697".to_string())),
            ("entries", entries),
        ]);
        let legacy = BenchReport::from_json(&Json::parse(&doc.render()).unwrap()).unwrap();
        let new = report(vec![entry("c2r", 8, 8, 0.1)]);
        let cmp = compare(&legacy, &new, 10.0);
        assert!(cmp.skipped.is_none());
        assert_eq!(cmp.regressions(), 1);
        let archive = [crate::history::HistoryFile {
            file: "legacy".to_string(),
            seq: 1,
            report: legacy,
        }];
        let t = crate::history::trend(&archive, &new, 10.0, crate::history::DEFAULT_WINDOW);
        assert_eq!(t.reports_used, 1);
        assert_eq!(t.flagged(), 1);
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let doc = entry("c2r", 8, 4, 1.0).to_json();
        let fractions: Vec<f64> = doc
            .get("phases")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.get("fraction").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(fractions, vec![0.25, 0.75]);
    }

    #[test]
    fn pre_calibration_reports_load_with_default_stamps() {
        // A baseline written before any stamp existed carries only the
        // schema, name, threads and entries; it must load.
        let doc = Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("name", Json::Str("old".to_string())),
            ("threads", Json::Num(1.0)),
            ("entries", Json::Arr(vec![])),
        ]);
        let r = BenchReport::from_json(&doc).unwrap();
        assert_eq!((r.name.as_str(), r.threads), ("old", 1));
        assert!(r.entries.is_empty());
    }

    #[test]
    fn dispatch_stamps_round_trip() {
        // Archives written while `ipt bench` stamped the kernel-dispatch
        // tier still load, and re-render without the retired key.
        let r = report(vec![entry("c2r", 8, 4, 1.0)]);
        let Json::Obj(mut fields) = r.to_json() else {
            panic!("a report renders as an object");
        };
        fields.push(("dispatch_tier".into(), Json::Str("override".into())));
        let stamped = Json::Obj(fields).render();
        let back = BenchReport::from_json(&Json::parse(&stamped).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(!back.to_json().render().contains("dispatch_tier"));
    }

    #[test]
    fn rejects_wrong_schema() {
        let doc = Json::obj(vec![("schema", Json::Str("other-v9".to_string()))]);
        assert!(BenchReport::from_json(&doc).is_err());
        assert!(BenchReport::from_json(&Json::obj(vec![])).is_err());
    }

    #[test]
    fn compare_flags_only_regressions_past_threshold() {
        let old = report(vec![
            entry("c2r", 192, 256, 10.0),
            entry("r2c", 192, 256, 10.0),
            entry("gone", 8, 8, 1.0),
        ]);
        let new = report(vec![
            entry("c2r", 192, 256, 8.5), // -15%: regression
            entry("r2c", 192, 256, 9.5), // -5%: within threshold
            entry("added", 8, 8, 1.0),   // no baseline: counted, not gated
        ]);
        let cmp = compare(&old, &new, 10.0);
        assert_eq!(cmp.rows.len(), 2);
        let c2r = cmp.rows.iter().find(|r| r.algorithm == "c2r").unwrap();
        assert!(c2r.regressed);
        assert!((c2r.change_pct + 15.0).abs() < 1e-9);
        let r2c = cmp.rows.iter().find(|r| r.algorithm == "r2c").unwrap();
        assert!(!r2c.regressed);
        assert_eq!(cmp.regressions(), 1);
    }

    #[test]
    fn improvements_never_flag() {
        let old = report(vec![entry("c2r", 8, 8, 1.0)]);
        let new = report(vec![entry("c2r", 8, 8, 5.0)]);
        let cmp = compare(&old, &new, 10.0);
        assert!(!cmp.rows[0].regressed);
        assert!(cmp.rows[0].change_pct > 0.0);
    }

    #[test]
    fn one_sided_entries_are_counted_not_dropped() {
        let old = report(vec![entry("gone", 8, 8, 1.0), entry("c2r", 8, 8, 1.0)]);
        let new = report(vec![
            entry("c2r", 8, 8, 1.0),
            entry("added", 8, 8, 1.0),
            entry("added2", 8, 8, 1.0),
        ]);
        let cmp = compare(&old, &new, 10.0);
        assert_eq!((cmp.old_only, cmp.new_only), (1, 2));
        assert_eq!(cmp.rows.len(), 1);
    }

    #[test]
    fn zero_or_nan_baseline_cannot_mask_a_regression() {
        // A corrupt baseline used to produce change_pct = 0.0, so *any*
        // candidate — including a total collapse — sailed through the
        // gate. Each unusable baseline must now flag with a reason.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let old = report(vec![entry("c2r", 8, 8, bad)]);
            let new = report(vec![entry("c2r", 8, 8, 0.001)]);
            let cmp = compare(&old, &new, 10.0);
            assert_eq!(cmp.rows.len(), 1, "baseline {bad}");
            assert!(cmp.rows[0].regressed, "baseline {bad} must flag");
            let reason = cmp.rows[0].reason.as_deref().expect("reason");
            assert!(reason.contains("baseline"), "baseline {bad}: {reason}");
            assert!(cmp.rows[0].change_pct.is_nan());
        }
    }

    #[test]
    fn unusable_candidate_median_flags_too() {
        for bad in [0.0, f64::NAN, f64::NEG_INFINITY] {
            let old = report(vec![entry("c2r", 8, 8, 10.0)]);
            let new = report(vec![entry("c2r", 8, 8, bad)]);
            let cmp = compare(&old, &new, 10.0);
            assert!(cmp.rows[0].regressed, "candidate {bad} must flag");
            assert!(cmp.rows[0].reason.as_deref().unwrap().contains("candidate"));
        }
    }

    #[test]
    fn save_refuses_non_finite_statistics() {
        let dir = std::env::temp_dir().join("ipt_bench_report_nan_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_nan.json");
        let path = path.to_str().unwrap();
        let mut e = entry("c2r", 16, 16, 2.0);
        e.median_gbps = f64::NAN;
        let err = report(vec![e]).save(path).unwrap_err();
        assert!(err.contains("median_gbps"), "{err}");
        assert!(!std::path::Path::new(path).exists(), "must not write");
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("ipt_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_roundtrip.json");
        let path = path.to_str().unwrap();
        let r = report(vec![entry("c2r", 16, 16, 2.0)]);
        r.save(path).unwrap();
        assert_eq!(BenchReport::load(path).unwrap(), r);
        assert!(BenchReport::load("/nonexistent/x.json").is_err());
    }
}
