//! The SimilarityAtScale drivers.
//!
//! Two execution paths cover the paper's algorithm (Listing 1):
//!
//! * [`similarity_at_scale`] — the shared-memory driver: batches are
//!   filtered, bit-packed and multiplied with the Rayon-parallel
//!   popcount-AND kernel. This is what a single rank (one MPI process
//!   with on-node threading) executes, and what the examples use.
//! * [`similarity_at_scale_distributed`] — the simulated-distributed
//!   driver: `p` ranks run the full pipeline over the simulated runtime —
//!   the bitmap zero-row filter (an OR-allreduce of packed row bitmaps),
//!   per-rank bit-packed operand blocks, the rectangular-grid 2.5D SUMMA
//!   `AᵀA` (all `p` ranks active for every rank count), and the final
//!   layer/cardinality reductions — and the cost trackers record the
//!   communication the paper's evaluation is about.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use gas_dstsim::cost::{AggregateCost, CostModel, CostReport};
use gas_dstsim::machine::Machine;
use gas_dstsim::obs;
use gas_dstsim::runtime::Runtime;
use gas_sparse::bitmat::{BitMatrix, WORD_BITS};
use gas_sparse::dense::DenseMatrix;
use gas_sparse::dist::ata::{DistAta, SummaBuffers};
use gas_sparse::dist::filter::{dist_row_filter_indexed, DistRowFilter, RowFilter};
use gas_sparse::semiring::{PlusTimes, PopcountAnd};
use gas_sparse::spgemm::ata_upper_accumulate;

use crate::batch::BatchPlan;
use crate::config::SimilarityConfig;
use crate::error::{CoreError, CoreResult};
use crate::filter::{dist_bitmap_pays, observe_rows, slice_row_filter};
use crate::indicator::SampleCollection;
use crate::jaccard::SimilarityResult;
use crate::mask::{prepare_batch, PreparedBatch};

/// Run SimilarityAtScale on shared memory.
///
/// Each batch runs the distributed driver's pipeline on one rank: it
/// borrows the samples' values in the batch as slices of the collection,
/// builds the zero-row filter from them, packs them in one pass
/// ([`BitMatrix::from_batch_slices`]) and adds the upper triangle of the
/// popcount-AND `AᵀA` straight into `B` ([`ata_upper_accumulate`]). `B` is
/// mirrored once, after the last batch. The unmasked ablation
/// (`use_bitmask: false`) builds its boolean views with
/// [`crate::mask::prepare_batch`], which filters as well, and adds the
/// plus-times triangle the same way.
///
/// Traced, a run is one `similarity_at_scale` span holding one `batch`
/// span per batch — `read`, `filter` (when filtering the masked path),
/// `pack` and `kernel` inside it — and a closing `finalize`.
pub fn similarity_at_scale(
    collection: &SampleCollection,
    config: &SimilarityConfig,
) -> CoreResult<SimilarityResult> {
    config.validate()?;
    let _run = obs::span("paper", "similarity_at_scale");
    let plan = BatchPlan::from_config(config, collection, 1)?;
    let n = collection.n();
    let mut b = DenseMatrix::<u64>::zeros(n, n);
    let mut cardinalities = vec![0u64; n];
    for (lo, hi) in plan.iter() {
        let _batch = obs::span("paper", "batch");
        let batch_rows = (hi - lo) as usize;
        let values: Vec<&[u64]> = {
            let _read = obs::span("paper", "read");
            (0..n).map(|i| collection.batch_values(i, lo, hi)).collect()
        };
        for (c, v) in cardinalities.iter_mut().zip(&values) {
            *c += v.len() as u64;
        }
        if config.use_bitmask {
            let filter = config.use_zero_row_filter.then(|| {
                let _filter = obs::span("paper", "filter");
                slice_row_filter(lo, batch_rows, &values)
            });
            let packed = {
                let _pack = obs::span("paper", "pack");
                let nrows = filter.as_ref().map_or(batch_rows, RowFilter::num_nonzero_rows);
                let all = 0..nrows.div_ceil(WORD_BITS);
                BitMatrix::from_batch_slices(lo..hi, &values, filter.as_ref(), &[all])?
            };
            let _kernel = obs::span("paper", "kernel");
            ata_upper_accumulate::<PopcountAnd>(packed.as_csc(), None, &mut b)?;
        } else {
            let (prepared, _) = {
                let _pack = obs::span("paper", "pack");
                let columns: Vec<Vec<usize>> =
                    values.iter().map(|v| v.iter().map(|&x| (x - lo) as usize).collect()).collect();
                prepare_batch(batch_rows, &columns, config.use_zero_row_filter, false)?
            };
            let _kernel = obs::span("paper", "kernel");
            match &prepared {
                PreparedBatch::Unmasked { csc, csr } => {
                    ata_upper_accumulate::<PlusTimes<u64>>(csc, Some(csr), &mut b)?
                }
                PreparedBatch::Masked(bm) => {
                    ata_upper_accumulate::<PopcountAnd>(bm.as_csc(), None, &mut b)?
                }
            }
        }
    }
    let _finalize = obs::span("paper", "finalize");
    b.mirror_upper()?;
    SimilarityResult::from_intersections(b, cardinalities)
}

/// Summary of a simulated-distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRunSummary {
    /// The similarity result (assembled from the distributed blocks).
    pub result: SimilarityResult,
    /// Per-rank communication/computation counters.
    pub reports: Vec<CostReport>,
    /// Aggregate of the per-rank counters.
    pub aggregate: AggregateCost,
    /// Number of ranks used.
    pub nranks: usize,
    /// The `r × q × c` processor grid the run was distributed over.
    pub grid_dims: [usize; 3],
    /// Ranks that participated in the product (always `nranks` with
    /// rectangular grids).
    pub active_ranks: usize,
}

impl DistributedRunSummary {
    /// BSP-projected execution time under `model`.
    pub fn projected_time(&self, model: &CostModel) -> f64 {
        model.project(&self.reports)
    }
}

/// What one rank of [`similarity_at_scale_distributed`] refills from
/// batch to batch: its SUMMA blocks, its zero-row filter and its two
/// packed operand blocks.
#[derive(Default)]
struct RankBuffers {
    blocks: SummaBuffers,
    filter: DistRowFilter,
    left: BitMatrix,
    right: BitMatrix,
}

thread_local! {
    /// The rank buffers of the last distributed run this thread made,
    /// indexed by rank, for its next run: rank threads live for one run.
    /// Freed with the thread; each buffer holds at most twice its last use.
    static PARKED: RefCell<Vec<RankBuffers>> = const { RefCell::new(Vec::new()) };
}

/// Run SimilarityAtScale on `nranks` simulated ranks of `machine`.
///
/// The driver selects a rectangular `r × q × c` grid for the rank count
/// (every rank active), and each rank reads the sample columns of its
/// output row block `R_i` and column block `C_j` (the two SUMMA
/// operands) as slices of the collection. Every rank contributes a packed
/// bitmap of the batch rows it observes to the distributed zero-row
/// filter (an OR-allreduce), packs from those slices the word-row chunks
/// of its filtered operand blocks that it sends
/// ([`DistAta::owned_chunks`]), and runs the SUMMA sweep. A hypersparse
/// batch — fewer than one entry per 64 words of its bitmap — allgathers
/// the rows each rank observes instead, so its filter stays `O(entries)`
/// in memory whatever the universe; every rank picks the branch from the
/// batch's entry count, which it reads off the collection. The result is
/// gathered on rank 0 for return. Communication counters for all ranks
/// are included in the summary so benchmarks can report modeled times at
/// the paper's scales.
///
/// Each rank refills its filter, packed operands and SUMMA blocks from
/// batch to batch, so a batch no larger than the ones before it allocates
/// nothing of the batch's size. The rank threads are spawned per run, so
/// those buffers are parked on the calling thread between runs (and freed
/// with it): a thread that runs the driver again allocates them only
/// where a batch outgrows them. That is where most of the saving is — for
/// a caller that runs the driver again and again on one thread; a first
/// run on a thread reuses its buffers within the run only. A kept buffer
/// gives back what exceeds twice its last batch's use, so the park holds
/// at most about twice what the last run's batches needed.
///
/// Traced, every rank thread records a root `setup` span (the grid's
/// communicators), one root `batch` span per batch — `read`, `filter`
/// (when filtering), `pack` and `summa` inside it, one `summa_step` per
/// SUMMA step under `summa` — then a `reduce` and a `gather` span; the
/// calling thread records `finalize`.
pub fn similarity_at_scale_distributed(
    collection: &SampleCollection,
    config: &SimilarityConfig,
    nranks: usize,
    machine: &Machine,
) -> CoreResult<DistributedRunSummary> {
    config.validate()?;
    if nranks == 0 {
        return Err(CoreError::InvalidConfig("need at least one rank".to_string()));
    }
    let n = collection.n();
    let plan = BatchPlan::from_config(config, collection, nranks)?;
    let runtime = Runtime::new(nranks).with_machine(machine.clone());
    let use_filter = config.use_zero_row_filter;
    let replication = config.replication;
    let grid = DistAta::select_grid(nranks, replication)?;
    let grid_dims = [grid.rows(), grid.cols(), grid.layers()];

    type RankOutput = Result<(Option<DenseMatrix<u64>>, Vec<u64>), CoreError>;

    // Every batch's entries over all samples, from which every rank picks
    // the same filter branch with no message.
    let batch_entries: Vec<usize> = if use_filter {
        plan.iter().map(|(lo, hi)| collection.batch_nnz(lo, hi) as usize).collect()
    } else {
        Vec::new()
    };

    let parked: Vec<Mutex<RankBuffers>> = PARKED.with_borrow_mut(|parked| {
        let mut kept = std::mem::take(parked);
        kept.resize_with(nranks, RankBuffers::default);
        kept.into_iter().map(Mutex::new).collect()
    });
    // Every state of a rank's buffers is a valid one to reuse.
    let take = |rank: usize| {
        std::mem::take(&mut *parked[rank].lock().unwrap_or_else(PoisonError::into_inner))
    };

    let out = runtime.run(|ctx| -> RankOutput {
        let world = ctx.world();
        let RankBuffers { blocks, filter: mut bitmap_filter, mut left, mut right } =
            take(ctx.rank());
        let mut ata = {
            let _setup = obs::span("paper", "setup");
            DistAta::with_buffers(world, n, replication, blocks)?
        };
        let mut acc = ata.new_accumulator();
        let mut card = ata.new_cardinalities();
        let (right_cols, left_cols) = (ata.my_col_range(), ata.my_row_range());
        let same_blocks = right_cols == left_cols;
        for (l, (lo, hi)) in plan.iter().enumerate() {
            let _batch = obs::span("paper", "batch");
            let batch_rows = (hi - lo) as usize;
            // Each rank reads the samples of its two operand blocks for
            // this batch, as slices of the collection (they coincide on
            // the diagonal of square grids).
            let read_span = obs::span("paper", "read");
            let slices = |cols: Range<usize>| -> Vec<&[u64]> {
                cols.map(|i| collection.batch_values(i, lo, hi)).collect()
            };
            let right_values = slices(right_cols.clone());
            let left_values = if same_blocks { Vec::new() } else { slices(left_cols.clone()) };
            drop(read_span);
            // Every rank scatters the rows it observes in its column block
            // into a packed bitmap; the OR-allreduce makes the union filter
            // available everywhere (the paper's accumulate-write
            // formulation). A hypersparse batch allgathers the observed
            // rows instead, as the shared driver sorts them. With the
            // filter disabled the batch is packed as-is.
            let sparse_filter;
            let filter = if use_filter {
                let _filter = obs::span("paper", "filter");
                let entries: usize = right_values.iter().map(|s| s.len()).sum();
                ctx.add_mem_traffic((entries * std::mem::size_of::<u64>()) as u64);
                // Distributed zero-row filter (collective over all ranks).
                if dist_bitmap_pays(batch_rows, batch_entries[l]) {
                    let observe = |words: &mut [u64]| observe_rows(words, lo, &right_values);
                    Some(bitmap_filter.rebuild(world, batch_rows, observe)?)
                } else {
                    let values = right_values.iter().copied().flatten();
                    let rows: Vec<usize> = values.map(|&v| (v - lo) as usize).collect();
                    sparse_filter = dist_row_filter_indexed(world, batch_rows, &rows)?;
                    Some(&sparse_filter)
                }
            } else {
                None
            };
            // Each rank renumbers and packs, in one pass over its slices,
            // only the word-row chunks it cuts into SUMMA blocks: the sweep
            // reads no other word. The perf ledger's traced replays still
            // run the old sequences: `apply_filter` +
            // `BitMatrix::from_columns` over the full extent here, held to
            // the same wire bytes, and `prepare_batch` → `to_csr` →
            // `ata_dense_parallel` for the shared driver. With the unmasked
            // ablation and the allreduce baseline they are the last callers
            // of `apply_filter` and `prepare_batch`; draining these spans
            // instead is the ledger-side edit left (ROADMAP 1A).
            let pack_span = obs::span("paper", "pack");
            let nrows = filter.map_or(batch_rows, RowFilter::num_nonzero_rows);
            let (left_keep, right_keep) = ata.owned_chunks(nrows.div_ceil(WORD_BITS));
            if same_blocks {
                let mut keep = [left_keep, right_keep].concat();
                keep.sort_by_key(|chunk| (chunk.start, chunk.end));
                keep.dedup();
                left.refill_from_batch_slices(lo..hi, &right_values, filter, &keep)?;
            } else {
                left.refill_from_batch_slices(lo..hi, &left_values, filter, &left_keep)?;
                right.refill_from_batch_slices(lo..hi, &right_values, filter, &right_keep)?;
            }
            drop(pack_span);
            let _summa = obs::span("paper", "summa");
            let right = if same_blocks { &left } else { &right };
            ata.accumulate_batch_keyed(&left, right, None, &mut acc, &mut card)?;
            ctx.record_superstep();
        }
        {
            let _reduce = obs::span("paper", "reduce");
            ata.finalize(&mut acc, &mut card)?;
        }
        let full = {
            let _gather = obs::span("paper", "gather");
            ata.gather_full(world, &acc)?
        };
        let blocks = ata.into_buffers();
        let kept = RankBuffers { blocks, filter: bitmap_filter, left, right };
        *parked[ctx.rank()].lock().unwrap_or_else(PoisonError::into_inner) = kept;
        Ok((full, card))
    })?;
    PARKED.with_borrow_mut(|kept| {
        *kept = parked
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
    });

    let reports = out.reports;
    let aggregate = AggregateCost::from_reports(&reports);
    let mut results = out.results.into_iter().collect::<CoreResult<Vec<_>>>()?;
    let (full_b, cardinalities) = results.swap_remove(0);
    let full_b = full_b.ok_or_else(|| {
        CoreError::InvalidInput("rank 0 did not produce the gathered similarity matrix".to_string())
    })?;
    let _finalize = obs::span("paper", "finalize");
    let result = SimilarityResult::from_intersections(full_b, cardinalities)?;
    Ok(DistributedRunSummary {
        result,
        reports,
        aggregate,
        nranks,
        grid_dims,
        active_ranks: grid_dims.iter().product(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_exact_pairwise;
    use gas_genomics::datasets::DatasetSpec;

    fn small_collection() -> SampleCollection {
        let samples = DatasetSpec::explicit(4000, 12, 0.02, 17).generate().unwrap();
        SampleCollection::from_sorted_sets(samples).unwrap()
    }

    #[test]
    fn shared_memory_matches_exact_reference() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        for batches in [1usize, 3, 7] {
            let r = similarity_at_scale(&c, &SimilarityConfig::with_batches(batches)).unwrap();
            assert_eq!(r.intersections(), exact.intersections(), "batches = {batches}");
            assert_eq!(r.cardinalities(), exact.cardinalities());
            assert!(r.max_similarity_diff(&exact).unwrap() < 1e-12);
        }
    }

    #[test]
    fn masking_and_filtering_do_not_change_the_result() {
        let c = small_collection();
        let reference = jaccard_exact_pairwise(&c);
        for (filter, mask) in [(true, true), (true, false), (false, true), (false, false)] {
            let config = SimilarityConfig {
                use_zero_row_filter: filter,
                use_bitmask: mask,
                ..SimilarityConfig::with_batches(2)
            };
            let r = similarity_at_scale(&c, &config).unwrap();
            assert_eq!(r.intersections(), reference.intersections(), "filter={filter} mask={mask}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let c = small_collection();
        assert!(similarity_at_scale(&c, &SimilarityConfig::with_batches(0)).is_err());
        assert!(similarity_at_scale_distributed(
            &c,
            &SimilarityConfig::default(),
            0,
            &Machine::laptop()
        )
        .is_err());
    }

    #[test]
    fn distributed_matches_exact_reference_on_various_rank_counts() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        for nranks in [1usize, 4, 6, 8, 9] {
            let summary = similarity_at_scale_distributed(
                &c,
                &SimilarityConfig::with_batches(3),
                nranks,
                &Machine::laptop(),
            )
            .unwrap();
            assert_eq!(summary.result.intersections(), exact.intersections(), "nranks = {nranks}");
            assert_eq!(summary.result.cardinalities(), exact.cardinalities());
            assert_eq!(summary.nranks, nranks);
            // Rectangular grids never idle ranks.
            assert_eq!(summary.active_ranks, nranks, "nranks = {nranks}");
            assert_eq!(summary.grid_dims.iter().product::<usize>(), nranks);
            if nranks > 1 {
                assert!(summary.aggregate.total_bytes_sent > 0);
            }
        }
    }

    #[test]
    fn distributed_with_replication_matches_reference() {
        let c = small_collection();
        let exact = jaccard_exact_pairwise(&c);
        let summary = similarity_at_scale_distributed(
            &c,
            &SimilarityConfig::with_batches(2).with_replication(2),
            8,
            &Machine::laptop(),
        )
        .unwrap();
        assert_eq!(summary.result.intersections(), exact.intersections());
        let projected = summary.projected_time(&Machine::laptop().cost_model().unwrap());
        assert!(projected > 0.0);
    }
}
