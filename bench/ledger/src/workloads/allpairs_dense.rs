//! `allpairs_dense` — the shared-memory driver on a dense batch.
//!
//! Why: at density 0.10 the zero-row filter keeps every row and the
//! popcount-AND kernel is most of the op, so a kernel or thread-pool
//! change shows here and a communication change cannot.

use std::time::Instant;

use gas_core::algorithm::similarity_at_scale;
use gas_core::batch::BatchPlan;
use gas_core::config::SimilarityConfig;
use gas_core::error::{CoreError, CoreResult};
use gas_core::indicator::SampleCollection;
use gas_core::jaccard::{jaccard_exact_pairwise, SimilarityResult};
use gas_core::mask::{prepare_batch, PreparedBatch};
use gas_genomics::datasets::DatasetSpec;
use gas_sparse::bitmat::BitMatrix;
use gas_sparse::csr::CsrMatrix;
use gas_sparse::dense::DenseMatrix;
use gas_sparse::semiring::PopcountAnd;
use gas_sparse::spgemm::{ata_dense_parallel, ata_flops};

use crate::harness::{self, Fnv, Outcome, RunArgs, Workload};
use crate::metrics::Report;
use crate::trace::Tracer;

pub const NAME: &str = "allpairs_dense";

struct Sizes {
    m: usize,
    n: usize,
    density: f64,
    batches: usize,
    /// Columns of the sub-collection the exact oracle covers.
    oracle_cols: usize,
    /// Sample pairs of a traced or smoke run.
    fixed_samples: u32,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes { m: 4_000, n: 96, density: 0.10, batches: 2, oracle_cols: 16, fixed_samples: 4 }
        } else {
            // ≈ 60 ms per op here, ≈ 350 samples in a 25-s run: the fast
            // tail of many short samples is what repeats on this host.
            // At density 0.05 nearly every 64-row word is still non-empty
            // (the kernel's work) while half the entries are gone (the
            // work of `prepare_batch`), which keeps the kernel above
            // half the op at this width. 352 columns, not 256: with a
            // power of two the batch's entry count sits on a doubling
            // step of the row filter's buffer, and the peak heap jumps
            // by 1 MB (11 %) with the seed.
            Sizes {
                m: 24_000,
                n: 352,
                density: 0.05,
                batches: 2,
                oracle_cols: 48,
                fixed_samples: 64,
            }
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

fn matrix_fingerprint(b: &DenseMatrix<u64>) -> u64 {
    let mut h = Fnv::default();
    h.words(b.as_slice());
    h.finish()
}

struct Dense {
    collection: SampleCollection,
    config: SimilarityConfig,
    /// Exact intersections of the first `oracle_cols` columns.
    oracle: SimilarityResult,
    first_fingerprint: Option<u64>,
}

/// The shared driver, phase by phase through public functions, each
/// phase under a span (mirrors `similarity_at_scale_with_stats`).
fn replay(
    collection: &SampleCollection,
    config: &SimilarityConfig,
    t: &mut Tracer,
) -> CoreResult<SimilarityResult> {
    t.scope("op", |t| {
        let plan = BatchPlan::from_config(config, collection, 1)?;
        let n = collection.n();
        let mut b = DenseMatrix::<u64>::zeros(n, n);
        let mut cardinalities = vec![0u64; n];
        for (lo, hi) in plan.iter() {
            let columns =
                t.scope("core.indicator.batch_columns", |_| collection.batch_columns_all(lo, hi));
            let prepared = t.scope("core.mask.prepare", |_| {
                let (prepared, _filter) = prepare_batch(
                    (hi - lo) as usize,
                    &columns,
                    config.use_zero_row_filter,
                    config.use_bitmask,
                )?;
                for (i, c) in prepared.col_cardinalities().into_iter().enumerate() {
                    cardinalities[i] += c;
                }
                CoreResult::Ok(prepared)
            })?;
            let PreparedBatch::Masked(bm) = &prepared else {
                return Err(CoreError::InvalidConfig("the benchmark always masks".into()));
            };
            let csr = t.scope("sparse.bitmat.to_csr", |_| bm.to_csr());
            let partial = t.scope("sparse.spgemm.kernel", |_| {
                ata_dense_parallel::<PopcountAnd>(bm.as_csc(), &csr)
            })?;
            t.scope("sparse.dense.accumulate", |_| b.add_assign(&partial))?;
        }
        t.scope("core.jaccard.finalize", |_| SimilarityResult::from_intersections(b, cardinalities))
    })
}

impl Dense {
    /// Compare one op's result with the oracle (first op) or with the
    /// first op's fingerprint (every later op). Returns failed ops.
    fn check(&mut self, result: CoreResult<SimilarityResult>) -> u64 {
        let Ok(result) = result else { return 1 };
        let fingerprint = matrix_fingerprint(result.intersections());
        match self.first_fingerprint {
            Some(first) => u64::from(fingerprint != first),
            None => {
                self.first_fingerprint = Some(fingerprint);
                let k = self.oracle.n();
                let agrees = (0..k).all(|i| {
                    result.cardinalities()[i] == self.oracle.cardinalities()[i]
                        && (0..k).all(|j| {
                            result.intersections().get(i, j)
                                == self.oracle.intersections().get(i, j)
                        })
                });
                u64::from(!agrees)
            }
        }
    }
}

impl Workload for Dense {
    fn ops_per_sample(&self) -> u64 {
        1
    }

    fn sample(&mut self, _index: u32, tracer: Option<&mut Tracer>) -> Outcome {
        let started = Instant::now();
        let result = match tracer {
            Some(t) => replay(&self.collection, &self.config, t),
            None => similarity_at_scale(&self.collection, &self.config),
        };
        let elapsed = started.elapsed();
        Outcome { elapsed, failed: self.check(result) }
    }
}

/// Kernel-level probes on freshly prepared batches: the exact work
/// counts and the one-thread kernel time.
fn kernel_probes(w: &Dense, report: &mut Report, kernel_ms: f64) -> CoreResult<()> {
    let plan = BatchPlan::from_config(&w.config, &w.collection, 1)?;
    let mut batches: Vec<(BitMatrix, CsrMatrix<u64>)> = Vec::new();
    let (mut rows_kept, mut rows_total) = (0u64, 0u64);
    for (lo, hi) in plan.iter() {
        let columns = w.collection.batch_columns_all(lo, hi);
        let (prepared, filter) = prepare_batch((hi - lo) as usize, &columns, true, true)?;
        rows_kept += filter.num_nonzero_rows() as u64;
        rows_total += hi - lo;
        if let PreparedBatch::Masked(bm) = prepared {
            let csr = bm.to_csr();
            batches.push((bm, csr));
        }
    }
    let words: u64 = batches.iter().map(|(bm, _)| bm.nnz_words() as u64).sum();
    let word_pairs: u64 = batches.iter().map(|(_, csr)| ata_flops(csr)).sum();
    let n = w.collection.n() as u64;
    report.set("core.mask.rows_kept_ratio", rows_kept as f64 / rows_total as f64);
    report.set("sparse.bitmat.words", words as f64);
    report.set("sparse.spgemm.word_pairs", word_pairs as f64);
    // Computed, not measured: per word pair one 8-byte operand read and
    // one 8-byte accumulator update, plus one n×n output per batch.
    // Cache misses are not in it.
    report.set(
        "sparse.spgemm.bytes_computed",
        (word_pairs * 16 + n * n * 8 * batches.len() as u64) as f64,
    );
    if kernel_ms > 0.0 {
        report.set("sparse.spgemm.gpairs_per_s", word_pairs as f64 / (kernel_ms / 1e3) / 1e9);
    }
    let one_thread = harness::pinned_to_one_cpu(|| {
        harness::median_ms(3, || {
            for (bm, csr) in &batches {
                std::hint::black_box(
                    ata_dense_parallel::<PopcountAnd>(bm.as_csc(), csr).expect("shapes agree"),
                );
            }
        })
    });
    if let Some(one_thread_ms) = one_thread {
        report.set("sparse.spgemm.kernel_1t_ms", one_thread_ms);
        if kernel_ms > 0.0 {
            report.set("sparse.spgemm.parallel_speedup", one_thread_ms / kernel_ms);
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut report = Report::new(NAME, args.seed, args.trace, !args.smoke);
    let samples = fixture(args.seed, &sizes);
    let (setup_s, collection) = harness::time_setups(
        |_| samples.clone(),
        |sets| SampleCollection::from_sorted_sets(sets).expect("generated sets are sorted"),
    );
    let oracle = jaccard_exact_pairwise(
        &SampleCollection::from_sorted_sets(samples[..sizes.oracle_cols].to_vec())
            .expect("generated sets are sorted"),
    );
    drop(samples);
    let mut w = Dense {
        collection,
        config: SimilarityConfig::with_batches(sizes.batches),
        oracle,
        first_fingerprint: None,
    };
    let measured = harness::measure_and_report(
        &mut w,
        args,
        sizes.fixed_samples,
        &mut report,
        setup_s,
        "op(s) disagreed with the exact pairwise oracle",
    );
    if !args.trace {
        return report;
    }
    let t = &measured.tracer;
    report.set("core.indicator.build_ms", setup_s * 1e3);
    for (span, metric) in [
        ("core.indicator.batch_columns", "core.indicator.batch_columns_ms"),
        ("core.mask.prepare", "core.mask.prepare_ms"),
        ("sparse.bitmat.to_csr", "sparse.bitmat.to_csr_ms"),
        ("sparse.spgemm.kernel", "sparse.spgemm.kernel_ms"),
        ("sparse.dense.accumulate", "sparse.dense.accumulate_ms"),
        ("core.jaccard.finalize", "core.jaccard.finalize_ms"),
    ] {
        report.set(metric, t.median_sample_ms(span));
    }
    let by_name = t.self_ns_by_name();
    let op_total: u64 = t.spans().iter().filter(|s| s.name == "op").map(|s| s.dur_ns()).sum();
    report.set("allpairs.unattributed_ratio", by_name["op"] as f64 / op_total as f64);
    let kernel_ms = t.median_sample_ms("sparse.spgemm.kernel");
    if let Err(e) = kernel_probes(&w, &mut report, kernel_ms) {
        report.fail(format!("kernel probe failed: {e}"));
    }
    report
}
