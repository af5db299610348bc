//! Observability integration: the instrumented serving stack must leave
//! a well-formed trace — phase spans for one paged query batch nest
//! inside the request span and their durations sum within it — and the
//! exporters must round-trip: Prometheus text re-parses to the exact
//! snapshot, the JSON exports parse with the strict
//! `gas_obs::parse_json_report` reader, and the distributed path's trace
//! carries the simulator's predicted cost next to measured wall-clock for
//! every collective phase. On the paper path the span tree is an exact
//! count (batches, SUMMA steps, the reduce and the gather per rank, read
//! without a clock), and tracing changes neither the answer nor any cost
//! counter.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use genomeatscale::core::algorithm::{similarity_at_scale_distributed, DistributedRunSummary};
use genomeatscale::dstsim::CostReport;
use genomeatscale::genomics::datasets::DatasetSpec;
use genomeatscale::obs;
use genomeatscale::prelude::*;
use genomeatscale::sparse::dist::ata::DistAta;

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

    // Both JSON exports parse with the one strict report reader.
    let rows = obs::parse_json_report(&trace_to_json(&events)).expect("trace json parses");
    assert_eq!(rows.len(), events.len());
    for row in &rows {
        for col in ["thread", "phase", "name", "stack", "depth", "start_ns", "dur_ns"] {
            assert!(row.iter().any(|(h, _)| h == col), "trace rows carry a {col} column");
        }
    }

    let rows =
        obs::parse_json_report(&obs::metrics_to_json(&telemetry)).expect("metrics json parses");
    assert_eq!(
        rows.len(),
        telemetry.counters.len() + telemetry.gauges.len() + telemetry.histograms.len()
    );
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

/// The paper-path fixture: 12 samples over 4 000 attributes.
fn paper_collection() -> SampleCollection {
    let samples = DatasetSpec::explicit(4000, 12, 0.02, 17).generate().expect("valid spec");
    SampleCollection::from_sorted_sets(samples).expect("sorted samples")
}

fn run_distributed(
    collection: &SampleCollection,
    batches: usize,
    ranks: usize,
) -> DistributedRunSummary {
    let config = SimilarityConfig::with_batches(batches);
    similarity_at_scale_distributed(collection, &config, ranks, &Machine::laptop())
        .expect("distributed run")
}

/// Run `f` with tracing on, from an empty trace; return its output and
/// its spans. Callers hold the gate.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    obs::clear();
    obs::set_enabled(true);
    let out = f();
    obs::set_enabled(false);
    (out, obs::take_events())
}

/// `name` spans of the paper phase, counted per recording thread.
fn per_thread(events: &[TraceEvent], name: &str) -> BTreeMap<u64, usize> {
    let mut counts = BTreeMap::new();
    for e in events.iter().filter(|e| e.phase == "paper" && e.name == name) {
        *counts.entry(e.thread).or_insert(0) += 1;
    }
    counts
}

#[test]
fn paper_path_span_tree_is_an_exact_count() {
    let collection = paper_collection();
    let _gate = tracing_session();
    obs::set_enabled(false);
    for ranks in [1usize, 4, 6] {
        // The SUMMA steps per layer of this grid, from the product itself.
        let steps = Runtime::new(ranks)
            .run(|ctx| {
                DistAta::new(ctx.world(), collection.n(), 1).expect("grid").steps_per_layer()
            })
            .expect("grid run")
            .results[0];
        for batches in [1usize, 3] {
            let (_, events) = traced(|| run_distributed(&collection, batches, ranks));
            let at = format!("p = {ranks}, b = {batches}");

            let batch = per_thread(&events, "batch");
            assert_eq!(batch.len(), ranks, "{at}: one rank thread per rank");
            let rank_threads: Vec<u64> = batch.keys().copied().collect();
            let each = |n: usize| rank_threads.iter().map(|&t| (t, n)).collect::<BTreeMap<_, _>>();
            assert_eq!(batch, each(batches), "{at}: batch spans per rank");
            assert_eq!(per_thread(&events, "summa_step"), each(batches * steps), "{at}");
            for phase in ["read", "filter", "pack", "summa"] {
                assert_eq!(per_thread(&events, phase), each(batches), "{at}: {phase}");
            }
            for phase in ["setup", "reduce", "gather"] {
                assert_eq!(per_thread(&events, phase), each(1), "{at}: {phase}");
            }
            for e in events.iter().filter(|e| e.phase == "paper") {
                match e.name {
                    "read" | "filter" | "pack" | "summa" => {
                        assert_eq!(e.stack, format!("batch;{}", e.name), "{at}");
                    }
                    "summa_step" => assert_eq!(e.stack, "batch;summa;summa_step", "{at}"),
                    _ => assert_eq!(e.depth, 0, "{at}: {} is a root span", e.stack),
                }
            }
            // Every collective nests under a paper phase of its rank.
            for e in events.iter().filter(|e| e.phase == "collective") {
                let root = e.stack.split(';').next().unwrap_or_default();
                assert!(e.depth > 0, "{at}: {} runs outside any phase", e.stack);
                assert!(["setup", "batch", "reduce", "gather"].contains(&root), "{}", e.stack);
            }
        }
    }

    // The shared-memory driver: one root per run, b batches of the
    // distributed driver's phases — `read`, `filter` when filtering,
    // `pack`, then `kernel` where a rank runs `summa` — then the finalize.
    for batches in [1usize, 3] {
        for use_zero_row_filter in [true, false] {
            let config =
                SimilarityConfig { use_zero_row_filter, ..SimilarityConfig::with_batches(batches) };
            let (_, events) =
                traced(|| similarity_at_scale(&collection, &config).expect("shared run"));
            let at = format!("b = {batches}, filter = {use_zero_row_filter}");
            let count = |stack: &str| events.iter().filter(|e| e.stack == stack).count();
            assert_eq!(count("similarity_at_scale"), 1, "{at}");
            assert_eq!(count("similarity_at_scale;batch"), batches, "{at}");
            assert_eq!(count("similarity_at_scale;finalize"), 1, "{at}");
            let children: Vec<&str> = events
                .iter()
                .filter(|e| e.stack.starts_with("similarity_at_scale;batch;"))
                .map(|e| e.name)
                .collect();
            let phases: &[&str] = if use_zero_row_filter {
                &["read", "filter", "pack", "kernel"]
            } else {
                &["read", "pack", "kernel"]
            };
            assert_eq!(children.len(), phases.len() * batches, "{at}: phases per batch");
            for phase in phases {
                assert_eq!(children.iter().filter(|&n| n == phase).count(), batches, "{at}");
            }
            for e in events.iter().filter(|e| e.stack.starts_with("similarity_at_scale;batch;")) {
                assert_eq!(e.stack, format!("similarity_at_scale;batch;{}", e.name), "{at}");
            }
        }
    }

    // Building a collection from k-mer samples is a span of its own.
    let kmers = [KmerSample::from_kmers("a", vec![3, 1]), KmerSample::from_kmers("b", vec![2])];
    let (_, events) = traced(|| SampleCollection::from_kmer_samples(&kmers).expect("collection"));
    assert_eq!(events.iter().filter(|e| e.stack == "from_kmer_samples").count(), 1);
}

#[test]
fn tracing_changes_neither_the_answer_nor_the_cost_counters() {
    let collection = paper_collection();
    let _gate = tracing_session();
    let (on, events) = traced(|| run_distributed(&collection, 3, 4));
    assert!(!events.is_empty(), "the traced run must leave spans");
    let off = run_distributed(&collection, 3, 4);
    assert!(obs::take_events().is_empty(), "the untraced run must leave none");

    assert_eq!(on.result.intersections(), off.result.intersections());
    assert_eq!(on.result.cardinalities(), off.result.cardinalities());
    let counters = |r: &CostReport| {
        let (bytes, msgs) = ((r.bytes_sent, r.bytes_received), (r.msgs_sent, r.msgs_received));
        (bytes, msgs, r.supersteps, r.collectives, r.flops)
    };
    assert_eq!((on.reports.len(), off.reports.len()), (4, 4));
    for (a, b) in on.reports.iter().zip(&off.reports) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(counters(a), counters(b), "rank {}", a.rank);
    }
}
