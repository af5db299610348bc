//! Exporters: Prometheus text, JSON report rows, folded stacks and the
//! predicted-vs-measured collectives report.
//!
//! Each text format has one writer and one strict parser here, so
//! exports are round-trip-testable without a third-party client:
//! [`to_prometheus`] / [`parse_prometheus`], and [`json_report`] /
//! [`parse_json_report`] for the `{"title": ..., "rows": [...]}` report
//! shape that [`trace_to_json`], [`metrics_to_json`] and the chaos
//! drill's per-scenario rows share.

use std::collections::BTreeMap;

use crate::hist::{LatencyHistogram, HISTOGRAM_BUCKETS};
use crate::metrics::MetricsSnapshot;
use crate::trace::TraceEvent;

// ---------------------------------------------------------------------------
// Prometheus text
// ---------------------------------------------------------------------------

/// Render a snapshot as Prometheus text exposition. Histograms emit the
/// standard cumulative `_bucket{le=...}` / `_sum` / `_count` series plus
/// a non-standard `<name>_max` gauge so [`parse_prometheus`] can rebuild
/// the exact [`LatencyHistogram`] (the open-ended top bucket needs the
/// observed maximum).
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snap.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &snap.histograms {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (i, &n) in hist.buckets().iter().enumerate() {
            cum += n;
            if i + 1 == HISTOGRAM_BUCKETS {
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
            } else {
                let bound = LatencyHistogram::bucket_bound_micros(i);
                out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cum}\n"));
            }
        }
        out.push_str(&format!("{name}_sum {}\n", hist.total_micros()));
        out.push_str(&format!("{name}_count {}\n", hist.count()));
        out.push_str(&format!("{name}_max {}\n", hist.max_micros()));
    }
    out
}

/// Parse text produced by [`to_prometheus`] back into a snapshot.
///
/// Deliberately strict (like [`parse_json_report`]): it accepts exactly the
/// shape the writer emits and fails loudly on anything else, so a
/// corrupted scrape is an error rather than an empty snapshot.
pub fn parse_prometheus(text: &str) -> Result<MetricsSnapshot, String> {
    let mut snap = MetricsSnapshot::default();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let (kind, name) = parse_type_line(line)?;
        match kind {
            "counter" => {
                let (n, v) = parse_sample(lines.next().ok_or("missing counter sample")?)?;
                if n != name {
                    return Err(format!("counter sample {n} under # TYPE {name}"));
                }
                snap.counters.push((name.to_string(), v.parse().map_err(|e| format!("{e}"))?));
            }
            "gauge" => {
                let (n, v) = parse_sample(lines.next().ok_or("missing gauge sample")?)?;
                if n != name {
                    return Err(format!("gauge sample {n} under # TYPE {name}"));
                }
                snap.gauges.push((name.to_string(), v.parse().map_err(|e| format!("{e}"))?));
            }
            "histogram" => {
                let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                let mut prev = 0u64;
                for (i, slot) in buckets.iter_mut().enumerate() {
                    let line = lines.next().ok_or("truncated histogram buckets")?;
                    let (n, v) = parse_sample(line)?;
                    let want = if i + 1 == HISTOGRAM_BUCKETS {
                        format!("{name}_bucket{{le=\"+Inf\"}}")
                    } else {
                        format!(
                            "{name}_bucket{{le=\"{}\"}}",
                            LatencyHistogram::bucket_bound_micros(i)
                        )
                    };
                    if n != want {
                        return Err(format!("expected series {want}, found {n}"));
                    }
                    let cum: u64 = v.parse().map_err(|e| format!("{e}"))?;
                    *slot = cum.checked_sub(prev).ok_or("non-monotone histogram buckets")?;
                    prev = cum;
                }
                let mut tail = |suffix: &str| -> Result<u64, String> {
                    let (n, v) = parse_sample(lines.next().ok_or("truncated histogram tail")?)?;
                    if n != format!("{name}_{suffix}") {
                        return Err(format!("expected {name}_{suffix}, found {n}"));
                    }
                    v.parse().map_err(|e| format!("{e}"))
                };
                let sum = tail("sum")?;
                let count = tail("count")?;
                let max = tail("max")?;
                let hist = LatencyHistogram::from_parts(buckets, sum, max);
                if hist.count() != count {
                    return Err(format!(
                        "histogram {name}: bucket sum {} != count {count}",
                        hist.count()
                    ));
                }
                snap.histograms.push((name.to_string(), hist));
            }
            other => return Err(format!("unknown metric type {other}")),
        }
    }
    Ok(snap)
}

fn parse_type_line(line: &str) -> Result<(&str, &str), String> {
    let rest = line.strip_prefix("# TYPE ").ok_or_else(|| format!("expected # TYPE: {line}"))?;
    rest.split_once(' ')
        .map(|(name, kind)| (kind, name))
        .ok_or_else(|| format!("malformed # TYPE line: {line}"))
}

fn parse_sample(line: &str) -> Result<(&str, &str), String> {
    line.rsplit_once(' ').ok_or_else(|| format!("malformed sample line: {line}"))
}

// ---------------------------------------------------------------------------
// JSON report rows
// ---------------------------------------------------------------------------

/// Escape `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a JSON report: `{"title": ..., "rows": [{column: value, ...}]}`.
/// Each value is JSON text already — a bare number or boolean, or a
/// [`json_string`] literal — so the caller decides each column's type.
pub fn json_report(title: &str, rows: Vec<Vec<(String, String)>>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"title\": {},\n", json_string(title)));
    out.push_str("  \"rows\": [\n");
    for (ri, row) in rows.iter().enumerate() {
        let fields: Vec<String> =
            row.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
        let sep = if ri + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse text produced by [`json_report`] back into its rows, one
/// `(column, value)` list per row.
///
/// Deliberately not a general JSON parser: it accepts exactly the shape
/// the writer emits (an object with a string `"title"` and a `"rows"`
/// array of flat objects whose values are strings or bare scalars) and
/// fails loudly on anything else, so a malformed report is an error
/// rather than an empty one. Scalars come back as their raw JSON text
/// (`"3.5"`, `"true"`); strings come back unescaped.
pub fn parse_json_report(text: &str) -> Result<Vec<Vec<(String, String)>>, String> {
    let mut p = JsonCursor { text, pos: 0 };
    p.expect(b'{')?;
    p.key("title")?;
    p.string()?;
    p.expect(b',')?;
    p.key("rows")?;
    p.expect(b'[')?;
    let mut rows = Vec::new();
    if !p.eat(b']') {
        loop {
            rows.push(p.flat_object()?);
            if !p.eat(b',') {
                p.expect(b']')?;
                break;
            }
        }
    }
    p.expect(b'}')?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err("trailing content after the report object".into());
    }
    Ok(rows)
}

/// Cursor over [`json_report`]'s output shape. `pos` only ever steps
/// over ASCII bytes or whole characters, so it stays on a char boundary.
struct JsonCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl JsonCursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.eat(want) {
            return Ok(());
        }
        Err(format!(
            "expected '{}' at byte {}, found {:?}",
            want as char,
            self.pos,
            self.text[self.pos..].chars().next()
        ))
    }

    /// The object key `want` and its colon.
    fn key(&mut self, want: &str) -> Result<(), String> {
        let key = self.string()?;
        if key != want {
            return Err(format!("expected \"{want}\", found \"{key}\""));
        }
        self.expect(b':')
    }

    /// A JSON string literal, unescaped.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let ch = self.text[self.pos..].chars().next().expect("peeked a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// A flat `{column: value, ...}` row: values are strings or bare
    /// scalars (returned as raw text).
    fn flat_object(&mut self) -> Result<Vec<(String, String)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            let value = if self.peek() == Some(b'"') {
                self.string()?
            } else {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| !matches!(b, b',' | b'}') && !b.is_ascii_whitespace())
                {
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(format!("empty scalar for key \"{key}\""));
                }
                self.text[start..self.pos].to_string()
            };
            fields.push((key, value));
            if !self.eat(b',') {
                self.expect(b'}')?;
                return Ok(fields);
            }
        }
    }
}

/// Render trace events as a [`json_report`]:
/// one row per closed span with `thread`/`phase`/`name`/`stack`/`depth`/
/// `start_ns`/`dur_ns` columns plus `attrs` as a `key=value` list.
pub fn trace_to_json(events: &[TraceEvent]) -> String {
    let rows = events
        .iter()
        .map(|e| {
            let attrs =
                e.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(";");
            vec![
                ("thread".to_string(), e.thread.to_string()),
                ("phase".to_string(), json_string(e.phase)),
                ("name".to_string(), json_string(e.name)),
                ("stack".to_string(), json_string(&e.stack)),
                ("depth".to_string(), e.depth.to_string()),
                ("start_ns".to_string(), e.start_ns.to_string()),
                ("dur_ns".to_string(), e.dur_ns.to_string()),
                ("attrs".to_string(), json_string(&attrs)),
            ]
        })
        .collect();
    json_report("trace", rows)
}

/// Render a metrics snapshot as a [`json_report`]: one row per metric
/// with uniform columns — scalars fill `value`, histograms fill the
/// latency columns.
pub fn metrics_to_json(snap: &MetricsSnapshot) -> String {
    let mut rows = Vec::new();
    let scalar = |kind: &str, name: &str, value: String| {
        vec![
            ("kind".to_string(), json_string(kind)),
            ("name".to_string(), json_string(name)),
            ("value".to_string(), value),
            ("count".to_string(), "0".to_string()),
            ("p50_us".to_string(), "0".to_string()),
            ("p99_us".to_string(), "0".to_string()),
            ("max_us".to_string(), "0".to_string()),
        ]
    };
    for (name, value) in &snap.counters {
        rows.push(scalar("counter", name, value.to_string()));
    }
    for (name, value) in &snap.gauges {
        rows.push(scalar("gauge", name, value.to_string()));
    }
    for (name, hist) in &snap.histograms {
        rows.push(vec![
            ("kind".to_string(), json_string("histogram")),
            ("name".to_string(), json_string(name)),
            ("value".to_string(), hist.total_micros().to_string()),
            ("count".to_string(), hist.count().to_string()),
            ("p50_us".to_string(), hist.quantile_micros(0.5).to_string()),
            ("p99_us".to_string(), hist.quantile_micros(0.99).to_string()),
            ("max_us".to_string(), hist.max_micros().to_string()),
        ]);
    }
    json_report("metrics", rows)
}

// ---------------------------------------------------------------------------
// Folded stacks
// ---------------------------------------------------------------------------

/// Collapse span events into folded-stacks lines (`stack self_weight`),
/// the input format of flamegraph renderers. Weights are *self* time in
/// microseconds: each stack's total minus its direct children's totals
/// (clamped at zero — concurrent children can transiently oversubscribe
/// a parent). Stacks from different threads with the same path merge.
pub fn folded_stacks(events: &[TraceEvent]) -> String {
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        *total.entry(e.stack.as_str()).or_insert(0) += e.dur_ns;
    }
    let mut self_ns = total.clone();
    for (stack, ns) in &total {
        if let Some(pos) = stack.rfind(';') {
            if let Some(parent) = self_ns.get_mut(&stack[..pos]) {
                *parent = parent.saturating_sub(*ns);
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in &self_ns {
        out.push_str(&format!("{stack} {}\n", ns / 1_000));
    }
    out
}

// ---------------------------------------------------------------------------
// Predicted vs measured collectives
// ---------------------------------------------------------------------------

/// Aggregated cost of one collective phase: how often it ran, how long
/// it measurably took, and what the simulator's cost model predicted
/// (summed from the `predicted_us` span annotations).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveCost {
    /// Collective name (`"bcast"`, `"allgatherv"`, ...).
    pub name: &'static str,
    /// Number of spans aggregated.
    pub calls: u64,
    /// Measured wall-clock, microseconds.
    pub measured_us: f64,
    /// Cost-model prediction, microseconds.
    pub predicted_us: f64,
}

/// Group `phase == "collective"` spans by name, summing measured
/// wall-clock and the `predicted_us` annotations. Sorted by name.
pub fn collective_cost_report(events: &[TraceEvent]) -> Vec<CollectiveCost> {
    let mut by_name: BTreeMap<&'static str, CollectiveCost> = BTreeMap::new();
    for e in events.iter().filter(|e| e.phase == "collective") {
        let entry = by_name.entry(e.name).or_insert(CollectiveCost {
            name: e.name,
            calls: 0,
            measured_us: 0.0,
            predicted_us: 0.0,
        });
        entry.calls += 1;
        entry.measured_us += e.dur_ns as f64 / 1_000.0;
        for (k, v) in &e.attrs {
            if *k == "predicted_us" {
                entry.predicted_us += v;
            }
        }
    }
    by_name.into_values().collect()
}

/// Render a [`collective_cost_report`] as an aligned text table.
pub fn render_collective_costs(report: &[CollectiveCost]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>8} {:>14} {:>14} {:>8}\n",
        "collective", "calls", "measured_us", "predicted_us", "ratio"
    ));
    for row in report {
        let ratio = if row.predicted_us > 0.0 { row.measured_us / row.predicted_us } else { 0.0 };
        out.push_str(&format!(
            "{:<20} {:>8} {:>14.1} {:>14.1} {:>8.2}\n",
            row.name, row.calls, row.measured_us, row.predicted_us, ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut hist = LatencyHistogram::new();
        for micros in [0u64, 1, 3, 900, 5_000_000, 30_000_000] {
            hist.record(Duration::from_micros(micros));
        }
        let mut snap = MetricsSnapshot::default();
        snap.set_counter("gas_serve_requests_total", 42);
        snap.set_counter("gas_serve_shed_total", 3);
        snap.set_gauge("gas_serve_inflight", -1);
        snap.set_histogram("gas_serve_query_micros", hist);
        snap
    }

    #[test]
    fn prometheus_text_round_trips_exactly() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        assert!(text.contains("# TYPE gas_serve_requests_total counter"));
        assert!(text.contains("gas_serve_requests_total 42"));
        assert!(text.contains("# TYPE gas_serve_query_micros histogram"));
        assert!(text.contains("gas_serve_query_micros_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("gas_serve_query_micros_max 30000000"));
        let parsed = parse_prometheus(&text).expect("round trip");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_parser_rejects_corruption() {
        let text = to_prometheus(&sample_snapshot());
        // Flipping any single line must fail loudly, not read as empty.
        for (i, _) in text.lines().enumerate() {
            let corrupted: String = text
                .lines()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            assert!(parse_prometheus(&corrupted).is_err(), "dropping line {i} must fail");
        }
        assert!(parse_prometheus("gas_x 1\n").is_err(), "sample without # TYPE must fail");
    }

    #[test]
    fn trace_json_rows_carry_all_span_fields() {
        let events = vec![TraceEvent {
            thread: 1,
            phase: "serve",
            name: "probe",
            stack: "query_page;probe".to_string(),
            depth: 1,
            start_ns: 10,
            dur_ns: 20,
            attrs: vec![("candidates", 7.0)],
        }];
        let json = trace_to_json(&events);
        assert!(json.contains("\"title\": \"trace\""));
        assert!(json.contains("\"stack\": \"query_page;probe\""));
        assert!(json.contains("\"dur_ns\": 20"));
        assert!(json.contains("\"attrs\": \"candidates=7\""));
    }

    #[test]
    fn metrics_json_rows_cover_all_kinds() {
        let json = metrics_to_json(&sample_snapshot());
        assert!(json.contains(
            "\"kind\": \"counter\", \"name\": \"gas_serve_requests_total\", \"value\": 42"
        ));
        assert!(
            json.contains("\"kind\": \"gauge\", \"name\": \"gas_serve_inflight\", \"value\": -1")
        );
        assert!(json.contains("\"kind\": \"histogram\", \"name\": \"gas_serve_query_micros\""));
        assert!(json.contains("\"max_us\": 30000000"));
    }

    #[test]
    fn json_reports_round_trip_through_parse_json_report() {
        let row = |cells: [(&str, String); 4]| cells.map(|(k, v)| (k.to_string(), v)).to_vec();
        let text = json_report(
            "trip \"quoted\"",
            vec![
                row([
                    ("workload", json_string("tiny")),
                    ("qps", "6531.3".into()),
                    ("ok", "true".into()),
                    ("note", json_string("line\nbreak \u{1} µs")),
                ]),
                row([
                    ("workload", json_string("default")),
                    ("qps", "42".into()),
                    ("ok", "false".into()),
                    ("note", json_string("ok")),
                ]),
            ],
        );
        assert!(text.contains("\"title\": \"trip \\\"quoted\\\"\""));
        let rows = parse_json_report(&text).unwrap();
        assert_eq!(rows.len(), 2);
        // Columns and raw values survive, whether bare scalars (qps, ok)
        // or escaped strings (note).
        assert_eq!(rows[0][0], ("workload".into(), "tiny".into()));
        assert_eq!(rows[0][1], ("qps".into(), "6531.3".into()));
        assert_eq!(rows[0][2], ("ok".into(), "true".into()));
        assert_eq!(rows[0][3], ("note".into(), "line\nbreak \u{1} µs".into()));
        assert_eq!(rows[1][1], ("qps".into(), "42".into()));
        assert_eq!(parse_json_report(&json_report("t", Vec::new())).unwrap().len(), 0);
    }

    #[test]
    fn json_report_parser_rejects_malformed_reports() {
        for (name, text) in [
            ("empty", ""),
            ("not_report", "{\"rows\": []}"),
            ("truncated", "{\n  \"title\": \"t\",\n  \"rows\": [\n    {\"a\": 1}"),
            ("trailing", "{\n  \"title\": \"t\",\n  \"rows\": []\n}\nextra"),
            ("empty_scalar", "{\"title\": \"t\", \"rows\": [{\"a\": }]}"),
        ] {
            assert!(parse_json_report(text).is_err(), "{name} must be rejected");
        }
    }

    fn ev(stack: &str, dur_ns: u64) -> TraceEvent {
        let name: &'static str = "x";
        TraceEvent {
            thread: 0,
            phase: "serve",
            name,
            stack: stack.to_string(),
            depth: stack.matches(';').count() as u32,
            start_ns: 0,
            dur_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn folded_stacks_report_self_time() {
        let events = vec![
            ev("req", 10_000),
            ev("req;probe", 3_000),
            ev("req;score", 4_000),
            ev("req;score;rerank", 1_000),
        ];
        let folded = folded_stacks(&events);
        let lines: Vec<&str> = folded.lines().collect();
        // Self time: req = 10 - 3 - 4 = 3 µs; score = 4 - 1 = 3 µs.
        assert_eq!(lines, vec!["req 3", "req;probe 3", "req;score 3", "req;score;rerank 1"]);
    }

    #[test]
    fn collective_report_groups_and_sums_predictions() {
        let mut a = ev("allgatherv", 5_000);
        a.phase = "collective";
        a.name = "allgatherv";
        a.attrs = vec![("predicted_us", 2.0)];
        let mut b = a.clone();
        b.dur_ns = 3_000;
        b.attrs = vec![("predicted_us", 1.5)];
        let mut c = ev("bcast", 1_000);
        c.phase = "collective";
        c.name = "bcast";
        let report = collective_cost_report(&[a, b, c, ev("not_collective", 9)]);
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "allgatherv");
        assert_eq!(report[0].calls, 2);
        assert!((report[0].measured_us - 8.0).abs() < 1e-9);
        assert!((report[0].predicted_us - 3.5).abs() < 1e-9);
        assert_eq!(report[1].name, "bcast");
        let rendered = render_collective_costs(&report);
        assert!(rendered.contains("allgatherv"));
        assert!(rendered.contains("predicted_us"));
    }
}
