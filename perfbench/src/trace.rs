//! In-memory spans, self times, and Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the library is instrumented.
//! They stay in memory until the run ends, then [`Tracer::chrome`]
//! renders them as trace-event JSON (`"ph": "X"` complete events) that
//! Perfetto and `chrome://tracing` open.

use ipt_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span category of a request's own call into the library: these spans
/// make up the ledger whose self times sum to the traced call time.
pub const CALL: &str = "call";
/// Span category of an untimed measurement beside the calls (a layer
/// probe, a reference copy, a one-thread replay).
pub const PROBE: &str = "probe";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function name, e.g. `cache_aware.prerotate`.
    pub name: &'static str,
    /// [`CALL`] or [`PROBE`]; children inherit their root's category.
    pub cat: &'static str,
    /// Request id shared by every span of one request.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Payload bytes the span's call read plus wrote (0 if not counted).
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one (a root when none is
    /// open; `cat` applies to roots only).
    pub fn begin(&mut self, name: &'static str, cat: &'static str, req: u64) -> usize {
        let parent = self.open.last().copied();
        let cat = parent.map_or(cat, |p| self.spans[p].cat);
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            cat,
            req,
            parent,
            start,
            end: start,
            bytes: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Close span `id` and any spans still open inside it (a call that
    /// panicked leaves its inner spans open).
    pub fn close_to(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name` that moves `bytes`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        bytes: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, CALL, req);
        let r = f();
        self.end(id);
        self.spans[id].bytes = bytes;
        r
    }

    /// Record an already-measured span (for time reported by a child
    /// process, whose exact position inside its parent is unknown).
    pub fn push(&mut self, name: &'static str, parent: usize, start: u64, dur: u64) {
        let (cat, req) = (self.spans[parent].cat, self.spans[parent].req);
        self.spans.push(Span {
            name,
            cat,
            req,
            parent: Some(parent),
            start,
            end: start + dur,
            bytes: 0,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per name, over spans of category `cat`: (self nanoseconds, count).
    /// Self time is the span's duration minus its children's.
    pub fn self_times(&self, cat: &str) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            if s.cat == cat {
                let e = out.entry(s.name).or_default();
                e.0 += s.dur().saturating_sub(*c);
                e.1 += 1;
            }
        }
        out
    }

    /// Total duration of root spans of category `cat`, and their count.
    pub fn root_total(&self, cat: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.cat == cat)
            .fold((0, 0), |(t, n), s| (t + s.dur(), n + 1))
    }

    /// The trace as Chrome trace-event JSON, with `meta` under
    /// `"metadata"`.
    pub fn chrome(&self, meta: Json) -> Json {
        let us = |ns: u64| Json::Num(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str(s.cat.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", us(s.start)),
                    ("dur", us(s.dur())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("req", Json::Num(s.req as f64)),
                            ("span", Json::Num(id as f64)),
                            ("parent", parent),
                            ("bytes", Json::Num(s.bytes as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("metadata", meta),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::default();
        let root = t.begin("call", CALL, 1);
        t.span("a", 1, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", 1, 0, || {});
        t.end(root);
        let p = t.begin("probe", PROBE, 2);
        t.span("a", 2, 0, || {});
        t.end(p);
        let selfs = t.self_times(CALL);
        let sum: u64 = selfs.values().map(|v| v.0).sum();
        assert_eq!(sum, t.root_total(CALL).0);
        assert_eq!(selfs["a"].1, 1, "the probe's span is not a call span");
        assert!(selfs["a"].0 >= 2_000_000);
    }

    #[test]
    fn chrome_export_parses_back() {
        let mut t = Tracer::default();
        let root = t.begin("call", CALL, 7);
        t.push("child", root, 10, 5);
        t.end(root);
        let text = t.chrome(Json::obj(vec![])).render();
        let doc = Json::parse(&text).unwrap();
        let ev = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("ph").unwrap().as_str(), Some("X"));
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("req").unwrap().as_u64(), Some(7));
    }
}
