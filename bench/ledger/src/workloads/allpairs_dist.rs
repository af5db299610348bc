//! `allpairs_dist` — the paper's k-mer regime through the paper's
//! distributed driver, on the smallest grid where both SUMMA broadcasts
//! travel (p = 4, 2×2×1).
//!
//! Why: about 5 % of the rows survive the filter, so the bitmap
//! allreduce, `apply_filter`, `BitMatrix::from_columns` and SUMMA traffic
//! dominate and the popcount kernel — here many small block products
//! instead of one big one — is under a third of the op. More ranks than
//! cores: `op_ms` is total work plus scheduling, not scaling.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use gas_core::algorithm::{similarity_at_scale, similarity_at_scale_distributed};
use gas_core::batch::BatchPlan;
use gas_core::config::SimilarityConfig;
use gas_core::error::{CoreError, CoreResult};
use gas_core::filter::apply_filter;
use gas_core::indicator::SampleCollection;
use gas_core::jaccard::SimilarityResult;
use gas_core::mask::{prepare_batch, PreparedBatch};
use gas_dstsim::cost::{AggregateCost, CostReport};
use gas_dstsim::machine::Machine;
use gas_dstsim::runtime::Runtime;
use gas_genomics::datasets::DatasetSpec;
use gas_genomics::sample::KmerSample;
use gas_sparse::bitmat::BitMatrix;
use gas_sparse::dense::DenseMatrix;
use gas_sparse::dist::ata::DistAta;
use gas_sparse::dist::filter::dist_row_filter;
use gas_sparse::semiring::PopcountAnd;
use gas_sparse::spgemm::atb_block_dense;

use crate::harness::{self, Fnv, Outcome, RunArgs, ScratchDir, Workload};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;

pub const NAME: &str = "allpairs_dist";

const RANKS: usize = 4;

struct Sizes {
    m: usize,
    n: usize,
    density: f64,
    batches: usize,
    fixed_samples: u32,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes { m: 400_000, n: 32, density: 1e-3, batches: 2, fixed_samples: 4 }
        } else {
            Sizes { m: 8_000_000, n: 256, density: 2e-4, batches: 4, fixed_samples: 48 }
        }
    }
}

fn fixture(seed: u64, sizes: &Sizes) -> Vec<Vec<u64>> {
    DatasetSpec::explicit(sizes.m, sizes.n, sizes.density, seed)
        .generate()
        .expect("the fixture sizes are positive")
}

/// Fingerprint of the smoke-size fixture of `seed` (pinned by a test).
pub fn fixture_fingerprint(seed: u64) -> u64 {
    harness::fingerprint_sets(&fixture(seed, &Sizes::of(true)))
}

/// Write the fixture as the sorted k-mer files GenomeAtScale's
/// preprocessing emits, one per sample.
fn write_kmer_files(dir: &Path, samples: Vec<Vec<u64>>) -> std::io::Result<usize> {
    let n = samples.len();
    for (i, kmers) in samples.into_iter().enumerate() {
        let sample = KmerSample::from_sorted_kmers(format!("s{i}"), kmers)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut w = BufWriter::new(File::create(dir.join(format!("s{i}.kmers")))?);
        sample.write_sorted(&mut w).map_err(|e| std::io::Error::other(e.to_string()))?;
        w.flush()?;
    }
    Ok(n)
}

/// The paper's read step: every sample file, then the collection.
/// Returns the collection and the seconds spent in `read_sorted` alone.
fn read_collection(dir: &Path, n: usize) -> CoreResult<(SampleCollection, f64)> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let file = File::open(dir.join(format!("s{i}.kmers")))
            .map_err(|e| CoreError::InvalidInput(format!("fixture file s{i}.kmers: {e}")))?;
        samples.push(KmerSample::read_sorted(format!("s{i}"), BufReader::new(file))?);
    }
    let read_s = started.elapsed().as_secs_f64();
    Ok((SampleCollection::from_kmer_samples(&samples)?, read_s))
}

/// Phases of the distributed driver, in the order a rank runs them.
const PHASES: [&str; 6] = [
    "core.indicator.batch_columns",
    "sparse.dist.filter",
    "core.filter.apply",
    "sparse.bitmat.pack",
    "sparse.dist.summa",
    "sparse.dist.reduce",
];

/// What one rank of the replayed driver hands back.
struct RankTrace {
    full: Option<DenseMatrix<u64>>,
    cardinalities: Vec<u64>,
    spans: Vec<(usize, Instant, Instant)>,
    cache_hits: u64,
    cache_misses: u64,
}

/// What one replayed op yields besides its result.
struct ReplayStats {
    reports: Vec<CostReport>,
    /// Per phase, the largest per-rank total of the op, in ms.
    phase_ms: [f64; PHASES.len()],
    cache_hits: u64,
    cache_misses: u64,
}

/// The distributed driver, phase by phase through public functions
/// inside the benchmark's own `Runtime::run` closure (mirrors
/// `similarity_at_scale_distributed`, cost charges included, so the
/// counters of the two agree exactly). Ranks time their own phases; the
/// spans are recorded under the op span afterwards.
fn replay(
    collection: &SampleCollection,
    config: &SimilarityConfig,
    machine: &Machine,
    t: &mut Tracer,
) -> CoreResult<(SimilarityResult, ReplayStats)> {
    t.scope("op", |t| {
        let n = collection.n();
        let plan = BatchPlan::from_config(config, collection, RANKS)?;
        let runtime = Runtime::new(RANKS).with_machine(machine.clone());
        let replication = config.replication;
        let out = runtime.run(|ctx| -> CoreResult<RankTrace> {
            let world = ctx.world();
            let mut spans = Vec::new();
            let mut timed =
                |phase: usize, started: Instant| spans.push((phase, started, Instant::now()));
            let mut ata = DistAta::new(world, n, replication)?;
            let mut acc = ata.new_accumulator();
            let mut card = ata.new_cardinalities();
            let right_cols: Vec<usize> = ata.my_col_range().collect();
            let left_cols: Vec<usize> = ata.my_row_range().collect();
            let same_blocks = right_cols == left_cols;
            for (lo, hi) in plan.iter() {
                let batch_rows = (hi - lo) as usize;
                let started = Instant::now();
                let right_columns = collection.batch_columns(lo, hi, &right_cols);
                let left_columns = if same_blocks {
                    right_columns.clone()
                } else {
                    collection.batch_columns(lo, hi, &left_cols)
                };
                timed(0, started);
                let started = Instant::now();
                let local_rows: Vec<usize> = right_columns.iter().flatten().copied().collect();
                ctx.add_mem_traffic((local_rows.len() * std::mem::size_of::<u64>()) as u64);
                let filter = dist_row_filter(world, batch_rows, &local_rows)?;
                timed(1, started);
                let started = Instant::now();
                let right_f = apply_filter(&right_columns, &filter);
                let left_f = if same_blocks {
                    right_f.clone()
                } else {
                    apply_filter(&left_columns, &filter)
                };
                timed(2, started);
                let started = Instant::now();
                let nrows = filter.num_nonzero_rows();
                let right = BitMatrix::from_columns(nrows, &right_f)?;
                let left = if same_blocks {
                    right.clone()
                } else {
                    BitMatrix::from_columns(nrows, &left_f)?
                };
                timed(3, started);
                let started = Instant::now();
                ata.accumulate_batch_keyed(
                    &left,
                    &right,
                    Some(filter.fingerprint()),
                    &mut acc,
                    &mut card,
                )?;
                ctx.record_superstep();
                timed(4, started);
            }
            let started = Instant::now();
            ata.finalize(&mut acc, &mut card)?;
            let full = ata.gather_full(world, &acc)?;
            timed(5, started);
            Ok(RankTrace {
                full,
                cardinalities: card,
                spans,
                cache_hits: ata.cache_hits(),
                cache_misses: ata.cache_misses(),
            })
        })?;
        let mut stats = ReplayStats {
            reports: out.reports,
            phase_ms: [0.0; PHASES.len()],
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut rank0 = None;
        for (rank, result) in out.results.into_iter().enumerate() {
            let trace = result?;
            let mut totals = [0.0f64; PHASES.len()];
            for &(phase, start, end) in &trace.spans {
                t.record(PHASES[phase], start, end);
                totals[phase] += (end - start).as_secs_f64() * 1e3;
            }
            for (max, total) in stats.phase_ms.iter_mut().zip(totals) {
                *max = max.max(total);
            }
            stats.cache_hits += trace.cache_hits;
            stats.cache_misses += trace.cache_misses;
            if rank == 0 {
                rank0 = Some((trace.full, trace.cardinalities));
            }
        }
        let (full, cardinalities) = rank0.expect("RANKS is positive");
        let full = full.ok_or_else(|| {
            CoreError::InvalidInput("rank 0 did not gather the similarity matrix".into())
        })?;
        Ok((SimilarityResult::from_intersections(full, cardinalities)?, stats))
    })
}

fn block_range(total: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    (idx * total / parts)..((idx + 1) * total / parts)
}

/// The block products of one op, on one thread, through public
/// functions: for every batch, rank and SUMMA step the same
/// `atb_block_dense` call `DistAta` makes, and only that call timed.
/// Returns the sum over ranks in ms — the kernel's part of the op's CPU
/// time, which cannot be timed from outside `accumulate_batch_keyed`.
fn block_kernel_ms(collection: &SampleCollection, config: &SimilarityConfig) -> CoreResult<f64> {
    let grid = DistAta::select_grid(RANKS, config.replication)?;
    let (r, q, c) = (grid.rows(), grid.cols(), grid.layers());
    let steps = (1..=r * q).find(|s| s % r == 0 && s % q == 0).expect("r·q is a common multiple");
    let n = collection.n();
    let plan = BatchPlan::from_config(config, collection, RANKS)?;
    let mut kernel = Duration::ZERO;
    for (lo, hi) in plan.iter() {
        let columns = collection.batch_columns_all(lo, hi);
        let (prepared, _) = prepare_batch((hi - lo) as usize, &columns, true, true)?;
        let PreparedBatch::Masked(bm) = prepared else {
            return Err(CoreError::InvalidConfig("the benchmark always masks".into()));
        };
        for rank in 0..RANKS {
            let [i, j, k] = grid.coords_of(rank)?;
            let left = bm.select_cols(&block_range(n, r, i).collect::<Vec<_>>())?;
            let right = bm.select_cols(&block_range(n, q, j).collect::<Vec<_>>())?;
            let mut acc = DenseMatrix::<u64>::zeros(left.ncols(), right.ncols());
            for t in 0..steps {
                let chunk = block_range(bm.word_rows(), steps * c, k * steps + t);
                let left_chunk = left.select_word_rows(chunk.clone())?;
                let right_csr = right.select_word_rows(chunk)?.to_csr();
                let started = Instant::now();
                atb_block_dense::<PopcountAnd>(left_chunk.as_csc(), &right_csr, &mut acc)?;
                kernel += started.elapsed();
            }
            std::hint::black_box(&acc);
        }
    }
    Ok(kernel.as_secs_f64() * 1e3)
}

fn result_fingerprint(r: &SimilarityResult) -> u64 {
    let mut h = Fnv::default();
    h.words(r.intersections().as_slice());
    h.words(r.cardinalities());
    h.finish()
}

struct Dist {
    collection: SampleCollection,
    config: SimilarityConfig,
    machine: Machine,
    /// Fingerprint of the shared-memory driver's result: the oracle.
    oracle_fingerprint: u64,
    /// Cost reports of the first untraced op (every op's are the same).
    driver_reports: Option<Vec<CostReport>>,
    replays: Vec<ReplayStats>,
}

impl Workload for Dist {
    fn ops_per_sample(&self) -> u64 {
        1
    }

    fn sample(&mut self, _index: u32, tracer: Option<&mut Tracer>) -> Outcome {
        let started = Instant::now();
        let outcome = match tracer {
            Some(t) => replay(&self.collection, &self.config, &self.machine, t)
                .map(|(result, stats)| (result, RANKS, Some(stats))),
            None => similarity_at_scale_distributed(
                &self.collection,
                &self.config,
                RANKS,
                &self.machine,
            )
            .map(|summary| {
                if self.driver_reports.is_none() {
                    self.driver_reports = Some(summary.reports);
                }
                (summary.result, summary.active_ranks, None)
            }),
        };
        let elapsed = started.elapsed();
        let failed = match outcome {
            Ok((result, active_ranks, stats)) => {
                self.replays.extend(stats);
                u64::from(
                    result_fingerprint(&result) != self.oracle_fingerprint || active_ranks != RANKS,
                )
            }
            Err(_) => 1,
        };
        Outcome { elapsed, failed }
    }
}

fn wire_bytes(reports: &[CostReport]) -> u64 {
    reports.iter().map(|r| r.bytes_sent).sum()
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut report = Report::new(NAME, args.seed, args.trace, !args.smoke);
    let dir = ScratchDir::new(NAME).expect("results/tmp is writable");
    let n = write_kmer_files(dir.path(), fixture(args.seed, &sizes))
        .expect("fixture files can be written");
    let mut read_sorted_s = f64::INFINITY;
    let (setup_s, collection) = harness::time_setups(
        |_| (),
        |()| {
            let (collection, read_s) =
                read_collection(dir.path(), n).expect("fixture files read back");
            read_sorted_s = read_sorted_s.min(read_s);
            collection
        },
    );
    drop(dir);
    let config = SimilarityConfig::with_batches(sizes.batches);
    let oracle = similarity_at_scale(&collection, &config).expect("the shared driver runs");
    let mut w = Dist {
        collection,
        config,
        machine: Machine::laptop(),
        oracle_fingerprint: result_fingerprint(&oracle),
        driver_reports: None,
        replays: Vec::new(),
    };
    drop(oracle);
    let measured = harness::measure_and_report(
        &mut w,
        args,
        sizes.fixed_samples,
        &mut report,
        setup_s,
        "op(s) disagreed with similarity_at_scale or idled a rank",
    );
    if !args.trace {
        return report;
    }
    let t = &measured.tracer;
    report.set("genomics.sample.read_sorted_ms", read_sorted_s * 1e3);
    report.set("core.indicator.build_ms", (setup_s - read_sorted_s).max(0.0) * 1e3);
    report.set("core.indicator.batch_columns_ms", t.median_sample_ms(PHASES[0]));
    let phase_median =
        |phase: usize| stats::median_of(w.replays.iter().map(|r| r.phase_ms[phase]).collect());
    report.set("sparse.dist.filter_ms", phase_median(1));
    report.set("core.filter.apply_ms", phase_median(2));
    report.set("sparse.bitmat.pack_ms", phase_median(3));
    report.set("sparse.dist.summa_ms", phase_median(4));
    report.set("sparse.dist.reduce_ms", phase_median(5));
    let mut kernel_ms = Vec::new();
    for _ in 0..3 {
        match block_kernel_ms(&w.collection, &w.config) {
            Ok(ms) => kernel_ms.push(ms),
            Err(e) => report.fail(format!("the block-kernel probe failed: {e}")),
        }
    }
    if !kernel_ms.is_empty() {
        let kernel_ms = stats::median_of(kernel_ms);
        report.set("sparse.dist.kernel_ms", kernel_ms);
        let cpu_ms = report.value("bench.cpu_ms_per_op").expect("report_samples sets it");
        report.set("sparse.dist.kernel_share", kernel_ms / cpu_ms);
    }
    let last = w.replays.last().expect("a traced run replays at least one op");
    let probes = (last.cache_hits + last.cache_misses).max(1);
    report.set("sparse.dist.cache_hit_ratio", last.cache_hits as f64 / probes as f64);
    let runtime = Runtime::new(RANKS).with_machine(w.machine.clone());
    report.set(
        "dstsim.spawn_ms",
        harness::median_ms(20, || {
            runtime.run(|_| ()).expect("an empty closure cannot fail");
        }),
    );
    let reports = w.driver_reports.as_deref().expect("a run makes at least one untraced op");
    if w.replays.iter().any(|r| wire_bytes(&r.reports) != wire_bytes(reports)) {
        report.fail(
            "the replayed driver moved other bytes than similarity_at_scale_distributed".into(),
        );
    }
    let aggregate = AggregateCost::from_reports(reports);
    report.set("dstsim.wire_bytes", aggregate.total_bytes_sent as f64);
    report.set("dstsim.max_rank_bytes", aggregate.max_bytes_sent as f64);
    report.set("dstsim.msgs", aggregate.total_msgs as f64);
    report
        .set("dstsim.collectives", reports.iter().map(|r| r.collectives).max().unwrap_or(0) as f64);
    report.set("dstsim.supersteps", aggregate.max_supersteps as f64);
    report.set("dstsim.rank_imbalance", aggregate.flop_imbalance());
    let model = w.machine.cost_model().expect("the laptop preset is valid");
    let modeled_ms = model.project(reports) * 1e3;
    report.set("dstsim.modeled_ms", modeled_ms);
    let wall_ms = stats::fast_tail(&measured.untraced.sorted_ms());
    report.set("dstsim.modeled_over_wall", modeled_ms / wall_ms);
    // One op on the 2.5D grid (p = 8, c = 2): what replication saves the
    // most loaded rank.
    match similarity_at_scale_distributed(
        &w.collection,
        &w.config.clone().with_replication(2),
        8,
        &w.machine,
    ) {
        Ok(summary) => {
            report.set("dstsim.max_rank_bytes_p8c2", summary.aggregate.max_bytes_sent as f64);
            if result_fingerprint(&summary.result) != w.oracle_fingerprint {
                report.fail("the p = 8, c = 2 op disagreed with similarity_at_scale".into());
            }
        }
        Err(e) => report.fail(format!("the p = 8, c = 2 op failed: {e}")),
    }
    report
}
