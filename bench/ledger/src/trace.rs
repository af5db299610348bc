//! The benchmark's own spans.
//!
//! A traced run replays each driver phase by phase through the crates'
//! public functions and wraps every call in a span — name, start, end,
//! the span that caused it, and the sample it belongs to. Spans stay in
//! memory and are written out once, at exit. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover (children of one span may run concurrently — the ranks of a
//! simulated-distributed op do — so covered time is a union, not a sum).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<u32>,
    /// The sample (one timed block of work) the span belongs to.
    pub sample: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder of the load-generating thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    sample: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), sample: 0 }
    }
}

impl Tracer {
    /// Spans opened from now on belong to sample `id`.
    pub fn begin_sample(&mut self, id: u32) {
        self.sample = id;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            sample: self.sample,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a finished span timed elsewhere (inside a rank thread) as
    /// a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            sample: self.sample,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like
    /// [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per-sample total *duration* of the spans named `name`, in
    /// milliseconds, in sample order. Samples without such a span are
    /// absent.
    pub fn per_sample_ms(&self, name: &str) -> Vec<f64> {
        let mut by_sample: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *by_sample.entry(span.sample).or_default() += span.dur_ns();
        }
        by_sample.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Median over samples of the per-sample total of span `name`, in
    /// milliseconds; 0 when no sample has such a span.
    pub fn median_sample_ms(&self, name: &str) -> f64 {
        let per_sample = self.per_sample_ms(name);
        if per_sample.is_empty() {
            0.0
        } else {
            stats::median_of(per_sample)
        }
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// Total self time by span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_default() += self_ns;
        }
        out
    }

    /// The trace as a JSON document: one object per span.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&self_times)
            .map(|(s, &self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("sample", Json::Num(f64::from(s.sample))),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([("workload", Json::str(workload)), ("spans", Json::Arr(spans))])
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if lo < hi {
                children[parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, sample: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_sequential_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("leaf", 35, 40, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Four ranks running the same phase concurrently: the parent is
        // covered by their union [10, 60), not by their 160 ns sum.
        let spans = vec![
            span("op", 0, 100, None),
            span("rank", 10, 50, Some(0)),
            span("rank", 12, 55, Some(0)),
            span("rank", 20, 60, Some(0)),
            span("rank", 15, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("op", 10, 20, None), span("early", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_nests_scopes_and_tags_samples() {
        let mut t = Tracer::default();
        t.begin_sample(7);
        t.scope("op", |t| {
            t.scope("phase", |_| std::hint::black_box(1 + 1));
            let now = Instant::now();
            t.record("rank", now, now);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.sample == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.per_sample_ms("op").len(), 1);
        assert_eq!(t.median_sample_ms("op"), t.per_sample_ms("op")[0]);
        assert_eq!(t.median_sample_ms("absent"), 0.0);
        let total: u64 = t.self_ns_by_name().values().sum();
        assert_eq!(total, spans[0].dur_ns(), "self times add up to the root span");
        let doc = t.to_json("w");
        assert_eq!(Json::parse(&doc.write()).unwrap(), doc);
    }
}
