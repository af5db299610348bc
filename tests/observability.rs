//! Observability integration: the instrumented serving stack must leave
//! a well-formed trace — phase spans for one paged query batch nest
//! inside the request span and their durations sum within it — and the
//! exporters must round-trip: Prometheus text re-parses to the exact
//! snapshot, the JSON exports parse with the strict
//! `gas_bench::report::read_json_rows` reader of the bench reports, and
//! the distributed path's trace carries the simulator's predicted cost
//! next to measured wall-clock for every collective phase.

use std::sync::{Mutex, MutexGuard};

use gas_bench::report::read_json_rows;
use genomeatscale::obs;
use genomeatscale::prelude::*;

/// Tests toggle the process-global tracer, so they must not interleave:
/// each takes this gate, then starts from an empty trace.
static GATE: Mutex<()> = Mutex::new(());

fn tracing_session() -> MutexGuard<'static, ()> {
    let guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::clear();
    guard
}

/// A small family-structured corpus: clear nearest neighbors, non-trivial
/// in-family ranking.
fn family_collection() -> SampleCollection {
    let mut samples = Vec::new();
    for f in 0..4u64 {
        let core: Vec<u64> = (f * 50_000..f * 50_000 + 300).collect();
        for m in 0..6u64 {
            let mut s = core.clone();
            s.extend(f * 50_000 + 25_000 + m * 40..f * 50_000 + 25_000 + m * 40 + 40);
            samples.push(s);
        }
    }
    SampleCollection::from_sets(samples).expect("synthetic corpus is valid")
}

fn config() -> IndexConfig {
    IndexConfig::default().with_signature_len(128).with_threshold(0.4).with_signer(SignerKind::Oph)
}

#[test]
fn paged_query_spans_nest_and_sum_within_the_request() {
    let _gate = tracing_session();
    let collection = family_collection();
    let index = IndexOptions::from_config(config()).build_index(&collection).expect("build");
    let engine = QueryEngine::snapshot_with_collection(index, &collection);
    let probes: Vec<Vec<u64>> = (0..3).map(|i| collection.sample(i * 7).to_vec()).collect();
    let pages = engine
        .query_page_batch(&probes, &PageRequest::new(5).with_rerank(true))
        .expect("paged query batch");
    assert_eq!(pages.len(), probes.len());
    obs::set_enabled(false);
    let events = obs::take_events();

    let roots: Vec<_> = events.iter().filter(|e| e.depth == 0 && e.name == "query_page").collect();
    assert_eq!(roots.len(), probes.len(), "one request span per probe");
    for root in &roots {
        let root_end = root.start_ns + root.dur_ns;
        let children: Vec<_> = events
            .iter()
            .filter(|e| {
                e.thread == root.thread
                    && e.depth == 1
                    && e.stack.starts_with("query_page;")
                    && e.start_ns >= root.start_ns
                    && e.start_ns + e.dur_ns <= root_end
            })
            .collect();
        for phase in ["probe", "score", "rerank", "merge"] {
            assert!(
                children.iter().any(|e| e.name == phase),
                "request span must contain a {phase} span"
            );
        }
        let child_total: u64 = children.iter().map(|e| e.dur_ns).sum();
        assert!(
            child_total <= root.dur_ns,
            "phase spans ({child_total} ns) must sum within the request span ({} ns)",
            root.dur_ns
        );
    }
}

#[test]
fn write_paths_split_encoding_from_storage_io() {
    let _gate = tracing_session();
    let collection = family_collection();
    let path = std::env::temp_dir().join(format!("obs_write_path_{}.gidx", std::process::id()));
    let service = IndexOptions::from_config(config())
        .with_auto_compact(false)
        .serve_at(&path)
        .expect("serve a file-backed index");
    // Four equal commits fill one size tier, so the default policy merges
    // them; the delete gives the merge a tombstone to purge.
    for batch in 0..4 {
        let rows = (batch * 6..batch * 6 + 6)
            .map(|i| (format!("s{i}"), collection.sample(i).to_vec()))
            .collect();
        service.add_batch(rows).expect("stage");
        service.commit_wait().expect("seal");
    }
    service.delete(3).expect("delete");
    service.commit_wait().expect("seal the delete");
    let before = service.telemetry();
    service.maintain();
    let compact = service.stats().compact;
    let after = service.telemetry();
    obs::set_enabled(false);
    let events = obs::take_events();
    let file_len = std::fs::metadata(&path).expect("the index file exists").len() as i64;
    drop(service);
    std::fs::remove_file(&path).ok();
    assert_eq!((compact.passes, compact.vacuums_run), (1, 1), "one merge, one vacuum");

    // The file gauges answer why a pass did or did not vacuum: superseded
    // manifests were reclaimable before the merge, and the vacuum left
    // exactly the live image behind.
    let gauge = |snap: &obs::MetricsSnapshot, name: &str| snap.gauge(name).expect("gauge exported");
    assert!(gauge(&before, "gas_index_file_reclaimable_bytes") > 0);
    assert_eq!(gauge(&after, "gas_index_file_live_bytes"), file_len);
    assert_eq!(gauge(&after, "gas_index_file_reclaimable_bytes"), 0);

    // Each write site — the commit's seal, the merge's swap, the vacuum's
    // rewrite — splits into encoding its blocks and the storage call that
    // writes and fsyncs them, and the two sum within their parent.
    for parent in ["seal", "swap", "vacuum"] {
        let parents: Vec<_> = events.iter().filter(|e| e.name == parent).collect();
        assert!(!parents.is_empty(), "a {parent} span must be recorded");
        for p in parents {
            let children: Vec<_> = events
                .iter()
                .filter(|e| {
                    e.thread == p.thread
                        && e.depth == p.depth + 1
                        && e.stack.starts_with(&format!("{};", p.stack))
                        && e.start_ns >= p.start_ns
                        && e.start_ns + e.dur_ns <= p.start_ns + p.dur_ns
                })
                .collect();
            for child in ["encode", "write"] {
                assert!(
                    children.iter().any(|e| e.phase == "container" && e.name == child),
                    "{parent} must contain a container {child} span"
                );
            }
            assert!(children.iter().map(|e| e.dur_ns).sum::<u64>() <= p.dur_ns);
        }
    }
}

#[test]
fn exports_round_trip_through_prometheus_and_the_report_reader() {
    let _gate = tracing_session();
    obs::reset_metrics();
    let collection = family_collection();
    let service =
        IndexOptions::from_config(config()).with_auto_compact(false).serve().expect("serve");
    service
        .add_batch(
            (0..collection.n()).map(|i| (format!("s{i}"), collection.sample(i).to_vec())).collect(),
        )
        .expect("stage");
    service.commit_wait().expect("seal");
    let probe = collection.sample(0).to_vec();
    service.query_paged(std::slice::from_ref(&probe), &PageRequest::new(4)).expect("page");
    let telemetry = service.telemetry();
    obs::set_enabled(false);
    let events = obs::take_events();
    assert!(!events.is_empty(), "the served workload must leave a trace");

    // Prometheus text is a strict round-trip of the snapshot.
    let reparsed = obs::parse_prometheus(&obs::to_prometheus(&telemetry)).expect("prom parses");
    assert_eq!(reparsed, telemetry);
    assert!(telemetry.counter("gas_serve_commit_completed_total").unwrap_or(0) >= 1);

    // Both JSON exports parse with the same strict reader the trend gate
    // uses on bench reports.
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("obs_trace_{}.json", std::process::id()));
    std::fs::write(&trace_path, trace_to_json(&events)).expect("write trace json");
    let rows = read_json_rows(&trace_path).expect("trace json parses");
    assert_eq!(rows.len(), events.len());
    for row in &rows {
        for col in ["thread", "phase", "name", "stack", "depth", "start_ns", "dur_ns"] {
            assert!(row.iter().any(|(h, _)| h == col), "trace rows carry a {col} column");
        }
    }
    std::fs::remove_file(&trace_path).ok();

    let metrics_path = dir.join(format!("obs_metrics_{}.json", std::process::id()));
    std::fs::write(&metrics_path, obs::metrics_to_json(&telemetry)).expect("write metrics json");
    let rows = read_json_rows(&metrics_path).expect("metrics json parses");
    assert_eq!(
        rows.len(),
        telemetry.counters.len() + telemetry.gauges.len() + telemetry.histograms.len()
    );
    std::fs::remove_file(&metrics_path).ok();
}

#[test]
fn dist_trace_carries_predicted_next_to_measured_cost() {
    let _gate = tracing_session();
    let collection = family_collection();
    let index = IndexOptions::from_config(config()).build_index(&collection).expect("build");
    let probes: Vec<Vec<u64>> = (0..2).map(|i| collection.sample(i * 5).to_vec()).collect();
    let opts = QueryOptions { top_k: 5, rerank_exact: true, ..Default::default() };
    Runtime::new(2)
        .run(|ctx| {
            let q = if ctx.rank() == 0 { Some(&probes[..]) } else { None };
            ctx.expect_ok(
                "dist batch",
                dist_query_reader_batch_stats(ctx.world(), &index, Some(&collection), q, &opts),
            )
        })
        .expect("distributed run");
    obs::set_enabled(false);
    let events = obs::take_events();

    // The dist driver wraps its phases in spans on every rank...
    for phase in ["bcast", "exchange", "merge"] {
        assert!(
            events.iter().any(|e| e.phase == "dist" && e.name == phase),
            "dist trace must contain a {phase} phase span"
        );
    }
    // ...and every collective span underneath carries the simulator's
    // predicted cost, so the per-phase report compares both columns.
    let report = collective_cost_report(&events);
    assert!(!report.is_empty(), "collective spans must be present");
    for cost in &report {
        assert!(cost.calls > 0);
        assert!(cost.measured_us > 0.0, "{}: measured time must be positive", cost.name);
        assert!(cost.predicted_us > 0.0, "{}: predicted time must be positive", cost.name);
    }
    let rendered = render_collective_costs(&report);
    assert!(rendered.contains("predicted_us") && rendered.contains("measured_us"));
}
