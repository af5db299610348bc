//! `serve_read` — a file-backed, many-segment index answering queries,
//! nothing written.
//!
//! Why: on the read-only path the per-(query, segment) overhead — the
//! `gas_obs::counter` lock and allocation, the `thread::scope` spawns of
//! the rayon stand-in — outweighs sign, probe and score (one CPU is as
//! fast as two here), so hot-path work shows here and nowhere on the
//! all-pairs side.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use gas_core::indicator::SampleCollection;
use gas_core::minhash::SignerKind;
use gas_dstsim::runtime::Runtime;
use gas_index::{
    dist_query_reader_batch_stats, exact_top_k, DistQueryStats, IndexConfig, IndexOptions,
    IndexReader, IndexResult, Neighbor, PageRequest, QueryEngine, QueryOptions,
};
use rayon::prelude::*;

use super::corpus::Corpus;
use crate::harness::{self, splitmix64, Fnv, Outcome, RunArgs, ScratchDir, Workload};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;

pub const NAME: &str = "serve_read";

struct Sizes {
    families: u64,
    /// Rows sealed by each commit, largest tier first.
    segments: Vec<usize>,
    /// One row in this many is tombstoned.
    tombstone_every: usize,
    /// Distinct queries, cycled.
    queries: usize,
    /// Queries per `query_batch`; a sample is three estimate-only
    /// batches and one exact-rerank batch.
    batch: usize,
    /// Queries the recall oracle scans the whole collection for, in an
    /// untraced and in a traced run (one scan costs ≈ 0.3 s at full size).
    recall_queries: (usize, usize),
    fixed_samples: u32,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                families: 10,
                segments: vec![80, 40, 20, 20],
                tombstone_every: 50,
                queries: 64,
                batch: 8,
                recall_queries: (16, 16),
                fixed_samples: 4,
            }
        } else {
            // 250 families × 128 members in 16 size-tiered segments.
            let mut segments = vec![8_000];
            segments.extend([4_000; 3]);
            segments.extend([2_000; 4]);
            segments.extend([500; 8]);
            Sizes {
                families: 250,
                segments,
                tombstone_every: 50,
                queries: 4_096,
                batch: 16,
                recall_queries: (8, 32),
                fixed_samples: 96,
            }
        }
    }

    fn rows(&self) -> usize {
        self.segments.iter().sum()
    }

    fn per_sample(&self) -> usize {
        4 * self.batch
    }
}

fn index_config() -> IndexConfig {
    IndexConfig::default().with_signature_len(128).with_threshold(0.5).with_signer(SignerKind::Oph)
}

const ESTIMATE: QueryOptions = QueryOptions { top_k: 10, oversample: 3, rerank_exact: false };
const RERANK: QueryOptions = QueryOptions { top_k: 10, oversample: 3, rerank_exact: true };

/// The seeded inputs: the rows (by generator — every set-up and the
/// collection the exact re-rank reads each draw their own copy, so no
/// copy the program did not ask for sits in the peak heap), the ids to
/// tombstone, and the queries.
struct Fixture {
    corpus: Corpus,
    n_rows: u64,
    deletes: Vec<u32>,
    queries: Vec<Vec<u64>>,
}

impl Fixture {
    fn rows(&self) -> Vec<Vec<u64>> {
        (0..self.n_rows).map(|id| self.corpus.row(id)).collect()
    }
}

fn fixture(seed: u64, sizes: &Sizes) -> Fixture {
    let corpus = Corpus::new(seed, sizes.families);
    let n = sizes.rows() as u64;
    // Tombstones fall in the segments sealed before the last commit,
    // which stages them.
    let deletable = n - *sizes.segments.last().expect("at least one segment") as u64;
    let mut deletes: Vec<u32> = (0..n / sizes.tombstone_every as u64)
        .map(|k| (splitmix64(seed ^ 0xdead ^ (k << 20)) % deletable) as u32)
        .collect();
    deletes.sort_unstable();
    deletes.dedup();
    let queries = (0..sizes.queries as u64)
        .map(|k| corpus.query(splitmix64(seed ^ 0x51 ^ (k << 24)) % n, k))
        .collect();
    Fixture { corpus, n_rows: n, deletes, queries }
}

/// Fingerprint of the smoke-size fixture of `seed` (pinned by a test).
pub fn fixture_fingerprint(seed: u64) -> u64 {
    let f = fixture(seed, &Sizes::of(true));
    let mut h = Fnv::default();
    h.word(harness::fingerprint_sets(&f.rows()));
    h.words(&f.deletes.iter().map(|&d| u64::from(d)).collect::<Vec<_>>());
    f.queries.iter().for_each(|q| h.words(q));
    h.finish()
}

/// Timings and sizes of one index build.
#[derive(Debug, Clone, Copy, Default)]
struct BuildStats {
    build_s: f64,
    open_s: f64,
    file_bytes: u64,
}

/// The set-up a deployment pays before its first query: add every row,
/// seal the segments commit by commit (the last one with the
/// tombstones), and open the file read-only.
fn build_and_open(
    path: &Path,
    rows: Vec<Vec<u64>>,
    segments: &[usize],
    deletes: &[u32],
) -> IndexResult<(IndexReader, BuildStats)> {
    let started = Instant::now();
    let mut writer = IndexOptions::from_config(index_config()).create_writer_at(path)?;
    let mut rows = rows.into_iter().enumerate();
    for (k, &len) in segments.iter().enumerate() {
        for (id, values) in rows.by_ref().take(len) {
            writer.add(format!("r{id}"), values)?;
        }
        if k + 1 == segments.len() {
            for &id in deletes {
                writer.delete(id)?;
            }
        }
        writer.commit()?;
    }
    drop(writer);
    let build_s = started.elapsed().as_secs_f64();
    let opened = Instant::now();
    let reader = IndexReader::open(path)?;
    let stats = BuildStats {
        build_s,
        open_s: opened.elapsed().as_secs_f64(),
        file_bytes: std::fs::metadata(path)?.len(),
    };
    Ok((reader, stats))
}

fn collection_rows(collection: &SampleCollection) -> Vec<Vec<u64>> {
    (0..collection.n()).map(|i| collection.sample(i).to_vec()).collect()
}

fn answers_fingerprint(h: &mut Fnv, answers: &[Vec<Neighbor>]) {
    for hits in answers {
        h.word(hits.len() as u64);
        for n in hits {
            h.word(u64::from(n.id) << 32 | u64::from(n.agreement));
            h.word(n.score.to_bits());
        }
    }
}

struct Read {
    reader: IndexReader,
    /// Every row by global id: what the exact re-rank intersects with.
    collection: SampleCollection,
    deletes: Vec<u32>,
    queries: Vec<Vec<u64>>,
    batch: usize,
    /// Answer fingerprint of every cycle position on the first pass.
    first_pass: Vec<Option<u64>>,
}

impl Read {
    fn engine(&self) -> QueryEngine<'_> {
        QueryEngine::snapshot_with_collection(self.reader.clone(), &self.collection)
    }
}

impl Workload for Read {
    fn ops_per_sample(&self) -> u64 {
        4 * self.batch as u64
    }

    fn sample(&mut self, index: u32, tracer: Option<&mut Tracer>) -> Outcome {
        let per_sample = 4 * self.batch;
        let position = index as usize % self.first_pass.len();
        let queries = &self.queries[position * per_sample..(position + 1) * per_sample];
        let (estimated, reranked) = queries.split_at(3 * self.batch);
        let engine = self.engine();
        let scheme = *self.reader.scheme();
        let started = Instant::now();
        let answers: IndexResult<Vec<Vec<Neighbor>>> = match tracer {
            None => (|| {
                let mut out = Vec::with_capacity(per_sample);
                for batch in estimated.chunks(self.batch) {
                    out.extend(engine.query_batch(batch, &ESTIMATE)?);
                }
                out.extend(engine.query_batch(reranked, &RERANK)?);
                Ok(out)
            })(),
            // The same answers query by query: an estimate-only `query`
            // is `sign` then `query_presigned` (the queries are sorted
            // sets already, so normalising them is a no-op).
            Some(t) => t.scope("op", |t| {
                let mut out = Vec::with_capacity(per_sample);
                for q in estimated {
                    let sig = t.scope("core.minhash.sign", |_| scheme.sign(q));
                    out.push(t.scope("index.query.presigned", |_| {
                        engine.query_presigned(&scheme, &sig, &ESTIMATE)
                    })?);
                }
                for q in reranked {
                    out.push(t.scope("index.query.rerank", |_| engine.query(q, &RERANK))?);
                }
                Ok(out)
            }),
        };
        let elapsed = started.elapsed();
        let failed = match answers {
            Err(_) => per_sample as u64,
            Ok(answers) => {
                let mut h = Fnv::default();
                answers_fingerprint(&mut h, &answers);
                let fingerprint = h.finish();
                let first = *self.first_pass[position].get_or_insert(fingerprint);
                if first == fingerprint && answers.len() == per_sample {
                    0
                } else {
                    per_sample as u64
                }
            }
        };
        Outcome { elapsed, failed }
    }
}

/// Tie-aware recall@10 of the estimate-only answers against
/// `exact_top_k` over the live rows: a returned hit counts when its true
/// Jaccard reaches the 10th best true Jaccard (siblings of a family tie
/// exactly, so ids alone cannot be compared).
fn recall_at_10(w: &Read, queries: &[Vec<u64>]) -> IndexResult<f64> {
    let engine = w.engine();
    let (mut found, mut wanted) = (0usize, 0usize);
    for q in queries {
        let truth: Vec<Neighbor> = exact_top_k(&w.collection, q, 10 + w.deletes.len())
            .into_iter()
            .filter(|n| !w.reader.is_deleted(n.id))
            .take(10)
            .collect();
        let Some(floor) = truth.last().map(|n| n.score) else { continue };
        let hits = engine.query(q, &ESTIMATE)?;
        wanted += truth.len();
        found += hits
            .iter()
            .filter(|hit| {
                let row = w.collection.sample(hit.id as usize);
                let inter = gas_index::query::sorted_intersection_size(q, row) as f64;
                inter / (q.len() as f64 + row.len() as f64 - inter) >= floor - 1e-12
            })
            .count()
            .min(truth.len());
    }
    Ok(found as f64 / wanted.max(1) as f64)
}

/// The same live rows in one compacted in-memory segment: per-query
/// time here against the 16-segment reader is the per-segment overhead.
fn compacted_query_us(w: &Read, queries: &[Vec<u64>]) -> IndexResult<f64> {
    let mut writer = IndexOptions::from_config(index_config()).open_writer()?;
    for (id, values) in collection_rows(&w.collection).into_iter().enumerate() {
        writer.add(format!("r{id}"), values)?;
    }
    writer.commit()?;
    for &id in &w.deletes {
        writer.delete(id)?;
    }
    writer.commit()?;
    writer.compact_all()?;
    let engine = QueryEngine::snapshot(writer.reader());
    let scheme = *w.reader.scheme();
    let mut times = Vec::with_capacity(queries.len());
    for q in queries {
        let sig = scheme.sign(q);
        let started = Instant::now();
        std::hint::black_box(engine.query_presigned(&scheme, &sig, &ESTIMATE)?);
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median_of(times))
}

/// Cost of one `gas_obs::counter(name).inc()` in ns, from `threads`
/// threads at once.
fn counter_ns(threads: usize) -> f64 {
    const CALLS: u32 = 200_000;
    let barrier = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let started = Instant::now();
                    for _ in 0..CALLS {
                        gas_obs::counter("bench_ledger_probe_total").inc();
                    }
                    started.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

/// Queries per second of `clients` closed-loop clients over `queries`
/// split evenly among them, from the first client's start to the last
/// one's end (the clients time themselves: with as many clients as CPUs
/// a watching thread would be scheduled late).
fn clients_qps(w: &Read, queries: &[Vec<u64>], clients: usize) -> f64 {
    let barrier = Barrier::new(clients);
    let share = queries.len() / clients;
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(share)
            .take(clients)
            .map(|mine| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let engine = w.engine();
                    barrier.wait();
                    let started = Instant::now();
                    for q in mine {
                        std::hint::black_box(engine.query(q, &ESTIMATE).expect("query succeeds"));
                    }
                    (started, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let first = spans.iter().map(|s| s.0).min().expect("at least one client");
    let last = spans.iter().map(|s| s.1).max().expect("at least one client");
    (share * clients) as f64 / (last - first).as_secs_f64()
}

/// One batch through the sharded path at p = 4; every rank's stats.
fn sharded_stats(
    w: &Read,
    queries: &[Vec<u64>],
    opts: &QueryOptions,
) -> Result<Vec<DistQueryStats>, String> {
    let reference = w.engine().query_batch(queries, opts).map_err(|e| e.to_string())?;
    let collection = opts.rerank_exact.then_some(&w.collection);
    let out = Runtime::new(4)
        .run(|ctx| {
            let q = (ctx.rank() == 0).then_some(queries);
            dist_query_reader_batch_stats(ctx.world(), &w.reader, collection, q, opts)
        })
        .map_err(|e| e.to_string())?;
    let mut stats = Vec::new();
    for result in out.results {
        let (answers, rank_stats) = result.map_err(|e| e.to_string())?;
        if answers != reference {
            return Err("sharded answers differ from the single-rank engine".into());
        }
        stats.push(rank_stats);
    }
    Ok(stats)
}

fn layer_probes(
    w: &Read,
    sizes: &Sizes,
    build: BuildStats,
    report: &mut Report,
) -> Result<(), String> {
    let queries = &w.queries;
    let err = |e: gas_index::IndexError| e.to_string();
    report.set("index.lifecycle.build_s", build.build_s);
    report.set("index.container.open_ms", build.open_s * 1e3);
    report.set("index.container.file_bytes", build.file_bytes as f64);
    report.set("index.container.bytes_per_row", build.file_bytes as f64 / sizes.rows() as f64);

    let engine = w.engine();
    let probe = &queries[..queries.len().min(256)];
    let mut candidates = 0usize;
    for q in probe {
        candidates += engine.query_page(q, &PageRequest::new(10)).map_err(err)?.total_candidates;
    }
    report.set("index.query.candidates_per_query", candidates as f64 / probe.len() as f64);
    report.set(
        "index.query.compacted_us",
        compacted_query_us(w, &queries[..queries.len().min(512)]).map_err(err)?,
    );

    let mut latencies = Vec::with_capacity(queries.len() / 2);
    for q in &queries[..queries.len() / 2] {
        let started = Instant::now();
        std::hint::black_box(engine.query(q, &ESTIMATE).map_err(err)?);
        latencies.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let latencies = stats::sorted(latencies);
    report.set("index.query.p50_us", stats::median(&latencies));
    report.set("index.query.tail_us", stats::tail_value(&latencies));
    let scaling_queries = &queries[..queries.len() / 2];
    let one = clients_qps(w, &scaling_queries[..scaling_queries.len() / 2], 1);
    let two = clients_qps(w, scaling_queries, 2);
    report.set("index.query.client_scaling", two / one);

    report.set("obs.metrics.counter_ns", counter_ns(1));
    report.set("obs.metrics.counter_contended_ns", counter_ns(2));
    const PAR_CALLS: u32 = 2_000;
    let started = Instant::now();
    for _ in 0..PAR_CALLS {
        let out: Vec<usize> = (0..2usize).into_par_iter().map(|i| i).collect();
        std::hint::black_box(out);
    }
    report.set("rayon.par_call_us", started.elapsed().as_secs_f64() * 1e6 / f64::from(PAR_CALLS));

    // One batch of the size a sharded deployment would ship (256 at
    // full size), whatever the sample size of this benchmark.
    let batch = &queries[..queries.len().min(256)];
    let plain = sharded_stats(w, batch, &ESTIMATE)?;
    let reranked = sharded_stats(w, batch, &RERANK)?;
    let total = |f: fn(&DistQueryStats) -> usize| plain.iter().map(f).sum::<usize>() as f64;
    report.set("index.dist.wire_bytes", total(DistQueryStats::wire_bytes));
    report.set("index.dist.bcast_bytes", total(|s| s.bcast_bytes));
    report.set("index.dist.request_bytes", total(|s| s.request_bytes));
    report.set("index.dist.fetch_bytes", total(|s| s.fetch_bytes));
    report.set("index.dist.merge_bytes", total(|s| s.merge_bytes));
    report.set(
        "index.dist.fetched_row_ratio",
        total(|s| s.fetched_rows) / (plain.len() * w.reader.n_rows()) as f64,
    );
    let max = |stats: &[DistQueryStats], f: fn(&DistQueryStats) -> usize| {
        stats.iter().map(f).max().unwrap_or(0) as f64
    };
    report.set("index.dist.shard_bytes_max_rank", max(&plain, |s| s.shard_bytes));
    report.set("index.dist.collectives", max(&plain, |s| s.collective_calls));
    report.set("index.dist.collectives_rerank", max(&reranked, |s| s.collective_calls));
    Ok(())
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut report = Report::new(NAME, args.seed, args.trace, !args.smoke);
    let fixture = fixture(args.seed, &sizes);
    let dir = ScratchDir::new(NAME).expect("results/tmp is writable");
    let path_of = |round: usize| -> PathBuf { dir.path().join(format!("index-{round}.gidx")) };
    let (setup_s, (reader, build)) = harness::time_setups(
        |round| {
            if round > 0 {
                std::fs::remove_file(path_of(round - 1)).expect("the previous index file exists");
            }
            (path_of(round), fixture.rows())
        },
        |(path, rows)| {
            build_and_open(&path, rows, &sizes.segments, &fixture.deletes)
                .expect("the index builds and opens")
        },
    );
    drop(dir);
    if reader.segments().len() != sizes.segments.len() {
        report.fail(format!(
            "the reader holds {} segments, the fixture seals {}",
            reader.segments().len(),
            sizes.segments.len()
        ));
    }
    let positions = sizes.queries / sizes.per_sample();
    let collection =
        SampleCollection::from_sorted_sets(fixture.rows()).expect("corpus rows are sorted sets");
    let Fixture { deletes, queries, .. } = fixture;
    let mut w = Read {
        reader,
        collection,
        deletes,
        queries,
        batch: sizes.batch,
        first_pass: vec![None; positions],
    };
    let measured = harness::measure_and_report(
        &mut w,
        args,
        sizes.fixed_samples,
        &mut report,
        setup_s,
        "query answer(s) failed or changed between passes",
    );
    let recall_queries = if args.trace { sizes.recall_queries.1 } else { sizes.recall_queries.0 };
    let recall = recall_at_10(&w, &w.queries[..recall_queries]);
    match &recall {
        Ok(r) if *r >= 0.9 => {}
        Ok(r) => report.fail(format!("recall@10 is {r}, below 0.9")),
        Err(e) => report.fail(format!("the recall oracle failed: {e}")),
    }
    if !args.trace {
        return report;
    }
    report.set("index.query.recall_at_10", recall.unwrap_or(0.0));
    let t = &measured.tracer;
    report.set("core.minhash.sign_us", stats::median_of(t.durations_us("core.minhash.sign")));
    report
        .set("index.query.presigned_us", stats::median_of(t.durations_us("index.query.presigned")));
    report.set("index.query.rerank_us", stats::median_of(t.durations_us("index.query.rerank")));
    if let Err(e) = layer_probes(&w, &sizes, build, &mut report) {
        report.fail(format!("a layer probe failed: {e}"));
    }
    report
}
