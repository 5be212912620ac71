//! Spans recorded from the benchmark's own code, around each call into a
//! layer's public functions. Kept in memory, written out at the end, and
//! folded into per-layer self times.
//!
//! A span is a name, a start and an end (µs since the run's epoch), a
//! parent span and a request id shared by all spans of one request.
//! Server-reported intervals (`queue_us`, `eval_us`, `publish_us`) have
//! no timestamps of their own; they are attached as children of the
//! request span, laid back to back so that they end when the response
//! was read.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (index into the recorder).
    pub id: usize,
    /// Request id shared by every span of one request (0 = none).
    pub request: u64,
    /// `layer.call`, e.g. `wire.Json::parse`.
    pub name: String,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An in-memory span recorder; a disabled one records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// µs since the recorder's epoch.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_nanos() as f64 / 1000.0
    }

    /// Records a finished interval; returns its id (0 when disabled).
    pub fn record(
        &self,
        request: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (s, e) = (self.us(start), self.us(end));
        self.record_us(request, name, s, e, parent)
    }

    /// [`Self::record`] with times already in µs.
    pub fn record_us(
        &self,
        request: u64,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> usize {
        let Some(spans) = &self.spans else {
            return 0;
        };
        let mut spans = spans.lock().expect("span buffer poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            request,
            name: name.to_string(),
            start_us,
            end_us,
            parent,
        });
        id
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        request: u64,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(request, name, start, Instant::now(), parent);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span buffer poisoned").clone())
            .unwrap_or_default()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let dur = (s.end_us - s.start_us).max(0.0);
            (dur - covered(kids, s.start_us, s.end_us)).max(0.0)
        })
        .collect()
}

/// Total self time per layer, in µs.
pub fn layer_self_us(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t;
    }
    out
}

/// The spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"request\":{},\"name\":{:?},\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{}}}",
            s.id, s.request, s.name, s.start_us, s.end_us, parent
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The layers self times are reported for, named after the program's
/// modules; `gen` is the load generator itself.
pub const LAYERS: &[&str] = &[
    "gen",
    "wire",
    "server",
    "hub",
    "snapshot",
    "plan",
    "query",
    "federation",
    "mediator",
    "setup",
];

/// Writes `trace.self_ms.<layer>` (total self time of the layer's spans
/// over the traced run, ms) and `trace.spans.<layer>` for every layer.
pub fn report_layers(spans: &[Span], out: &mut crate::report::Outcome) {
    let by_layer = layer_self_us(spans);
    for layer in LAYERS {
        let n = spans.iter().filter(|s| s.layer() == *layer).count();
        let us = by_layer.get(*layer).copied().unwrap_or(0.0);
        out.metric(&format!("trace.self_ms.{layer}"), us / 1e3, "ms");
        out.metric(&format!("trace.spans.{layer}"), n as f64, "count");
    }
}

/// Writes the spans to `perfbench/out/spans-<workload>-<seed>.json`
/// (relative to the working directory, the checkout root).
pub fn write_spans(spans: &[Span], workload: &str, seed: u64) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, to_json(spans)));
    match written {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &str, s: f64, e: f64, parent: Option<usize>) -> Span {
        Span {
            id,
            request: 1,
            name: name.into(),
            start_us: s,
            end_us: e,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(0, "gen.request", 0.0, 100.0, None),
            span(1, "wire.Json::to_string", 0.0, 10.0, Some(0)),
            // Two overlapping children cover 40..70 once: 30 µs.
            span(2, "server.queue", 40.0, 60.0, Some(0)),
            span(3, "server.eval", 50.0, 70.0, Some(0)),
            // A child sticking out of its parent only counts inside it.
            span(4, "wire.Json::parse", 95.0, 120.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100.0 - 10.0 - 30.0 - 5.0);
        assert_eq!(t[1], 10.0);
        assert_eq!(t[4], 25.0);
        let by_layer = layer_self_us(&spans);
        assert_eq!(by_layer["gen"], 55.0);
        assert_eq!(by_layer["server"], 40.0);
        assert_eq!(by_layer["wire"], 35.0);
    }

    #[test]
    fn nested_grandchildren_count_against_their_own_parent() {
        let spans = vec![
            span(0, "query.answer", 0.0, 50.0, None),
            span(1, "federation.fetch", 0.0, 30.0, Some(0)),
            span(2, "gen.sleep", 5.0, 25.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![20.0, 10.0, 20.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(1, "x.y", None, || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        t.span(1, "x.y", None, || ());
        assert_eq!(t.spans().len(), 1);
        assert!(to_json(&t.spans()).contains("\"x.y\""));
    }
}
