//! The SimilarityAtScale driver.
//!
//! [`similarity_at_scale_distributed`] runs the paper's algorithm
//! (Listing 1) on `p` simulated ranks — the bitmap zero-row filter, per-rank
//! bit-packed operand blocks, the rectangular-grid 2.5D SUMMA `AᵀA` and the
//! final reductions — while the cost trackers record the communication
//! the paper's evaluation is about. [`similarity_at_scale`] is the same
//! driver on one rank, the grid's smallest case: there no peer receives a
//! block, so the rank multiplies each packed batch in place with the
//! Rayon-parallel triangle kernel, and its accumulator becomes the result.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use gas_dstsim::comm::Communicator;
use gas_dstsim::cost::{AggregateCost, CostModel, CostReport};
use gas_dstsim::machine::Machine;
use gas_dstsim::obs;
use gas_dstsim::runtime::Runtime;
use gas_sparse::bitmat::{BitMatrix, WORD_BITS};
use gas_sparse::dense::DenseMatrix;
use gas_sparse::dist::ata::{check_chunk_word_rows, DistAta, SummaBuffers};
use gas_sparse::dist::filter::{dist_row_filter_indexed, DistRowFilter};

use crate::batch::BatchPlan;
use crate::config::SimilarityConfig;
use crate::error::{CoreError, CoreResult};
use crate::filter::{bitmap_pays, observe_rows};
use crate::indicator::SampleCollection;
use crate::jaccard::SimilarityResult;

/// What a rank refills from batch to batch: its zero-row filter, its two
/// packed operand blocks and its SUMMA blocks.
#[derive(Default)]
struct RankBuffers {
    blocks: SummaBuffers,
    filter: DistRowFilter,
    left: BitMatrix,
    right: BitMatrix,
}

thread_local! {
    /// The buffers of the last run this thread made, indexed by rank, for
    /// its next run: rank threads live for one run. Freed with the thread;
    /// each buffer holds at most twice its last use.
    static PARKED: RefCell<Vec<RankBuffers>> = const { RefCell::new(Vec::new()) };
}

/// One batch `lo..hi` of Listing 1 up to its SUMMA sweep, on the rank of
/// `comm` (the world) whose grid position `ata` holds; returns the packed
/// `(left, right)` operands.
///
/// * `read` borrows the samples of the rank's row block `R_i` (the left
///   operand) and column block `C_j` (the right one) in the batch as
///   slices of the collection, once where the two coincide.
/// * `filter` (when `use_filter`) builds the batch's zero-row filter from
///   the right block's slices: where [`bitmap_pays`], the bitmap of the
///   rows observed, kept in `kept.filter` and OR-allreduced across the
///   ranks, whose right blocks cover every sample; else the sorted union
///   of the rows, allgathered. Every rank reads the batch's entry count
///   off the collection, so all pick the same branch.
/// * `pack` renumbers and packs, in one pass over the slices, the word-row
///   chunks the rank owns ([`DistAta::owned_chunks`]) into `kept`'s
///   operands, after refusing a chunk a SUMMA block could not index.
fn read_filter_pack<'k>(
    collection: &SampleCollection,
    (lo, hi): (u64, u64),
    use_filter: bool,
    (comm, ata): (&Communicator, &DistAta),
    kept: &'k mut RankBuffers,
) -> CoreResult<(&'k BitMatrix, &'k BitMatrix)> {
    let batch_rows = (hi - lo) as usize;
    let (left_cols, right_cols) = (ata.my_row_range(), ata.my_col_range());
    let same_blocks = left_cols == right_cols;
    let read_span = obs::span("paper", "read");
    let slices = |cols: Range<usize>| -> Vec<&[u64]> {
        cols.map(|i| collection.batch_values(i, lo, hi)).collect()
    };
    let right_values = slices(right_cols);
    let left_values = if same_blocks { Vec::new() } else { slices(left_cols) };
    drop(read_span);
    let sparse_filter;
    let filter = if use_filter {
        let _filter = obs::span("paper", "filter");
        let entries: usize = right_values.iter().map(|s| s.len()).sum();
        comm.add_mem_traffic((entries * std::mem::size_of::<u64>()) as u64);
        if bitmap_pays(batch_rows, collection.batch_nnz(lo, hi) as usize) {
            let observe = |words: &mut [u64]| observe_rows(words, lo, &right_values);
            Some(kept.filter.rebuild(comm, batch_rows, observe)?)
        } else {
            let values = right_values.iter().copied().flatten();
            let rows: Vec<usize> = values.map(|&v| (v - lo) as usize).collect();
            sparse_filter = dist_row_filter_indexed(comm, batch_rows, &rows)?;
            Some(&sparse_filter)
        }
    } else {
        None
    };
    let _pack = obs::span("paper", "pack");
    let nrows = filter.map_or(batch_rows, |f| f.num_nonzero_rows());
    let (left_keep, right_keep) = ata.owned_chunks(nrows.div_ceil(WORD_BITS));
    for chunk in left_keep.iter().chain(&right_keep) {
        check_chunk_word_rows(chunk.len())?;
    }
    if same_blocks {
        let mut keep = [left_keep, right_keep].concat();
        keep.sort_by_key(|chunk| (chunk.start, chunk.end));
        keep.dedup();
        kept.left.refill_from_batch_slices(lo..hi, &right_values, filter, &keep)?;
        return Ok((&kept.left, &kept.left));
    }
    kept.left.refill_from_batch_slices(lo..hi, &left_values, filter, &left_keep)?;
    kept.right.refill_from_batch_slices(lo..hi, &right_values, filter, &right_keep)?;
    Ok((&kept.left, &kept.right))
}

/// Run SimilarityAtScale on shared memory: the result of
/// [`similarity_at_scale_distributed`] on one rank of
/// [`Machine::laptop`]. The rank runs on the calling thread, multiplies
/// each packed batch in place with the Rayon-parallel triangle kernel,
/// and parks its buffers on that thread between runs.
pub fn similarity_at_scale(
    collection: &SampleCollection,
    config: &SimilarityConfig,
) -> CoreResult<SimilarityResult> {
    Ok(similarity_at_scale_distributed(collection, config, 1, &Machine::laptop())?.result)
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

/// Run SimilarityAtScale on `nranks` simulated ranks of `machine`.
///
/// The driver selects a rectangular `r × q × c` grid for the rank count
/// (every rank active). Each rank runs every batch through
/// `read_filter_pack` over the sample columns of its output row block
/// `R_i` and column block `C_j` (the two SUMMA operands), then the SUMMA
/// sweep; on a `1 × 1` layer grid that sweep is one step that cuts no
/// block and adds the upper triangle of the packed batch in place. After
/// the layer and cardinality reductions the result is gathered on rank
/// 0; on a `1 × 1` layer grid rank 0's accumulator is the result. The
/// summary carries every rank's communication counters, so benchmarks can
/// report modeled times at the paper's scales.
///
/// Each rank refills its filter, packed operands and SUMMA blocks from
/// batch to batch, so a batch no larger than the ones before it allocates
/// nothing of the batch's size. Rank threads live for one run (a single
/// rank runs on the calling thread), so the buffers are parked on the
/// calling thread between runs (and freed with it): a thread that runs
/// the driver again reuses them too. A kept buffer gives back what
/// exceeds twice its last batch's use.
///
/// Traced, every rank records a root `setup` span (the grid's
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
    let (use_filter, replication) = (config.use_zero_row_filter, config.replication);
    let grid = DistAta::select_grid(nranks, replication)?;
    let grid_dims = [grid.rows(), grid.cols(), grid.layers()];

    let parked: Vec<Mutex<RankBuffers>> = PARKED.with_borrow_mut(|parked| {
        let mut kept = std::mem::take(parked);
        kept.resize_with(nranks, RankBuffers::default);
        kept.into_iter().map(Mutex::new).collect()
    });
    // Every state of a rank's buffers is a valid one to reuse.
    let slot = |rank: usize| parked[rank].lock().unwrap_or_else(PoisonError::into_inner);

    let out = runtime.run(|ctx| -> CoreResult<(Option<DenseMatrix<u64>>, Vec<u64>)> {
        let world = ctx.world();
        let mut kept = std::mem::take(&mut *slot(ctx.rank()));
        let mut ata = {
            let _setup = obs::span("paper", "setup");
            DistAta::with_buffers(world, n, replication, std::mem::take(&mut kept.blocks))?
        };
        let mut acc = ata.new_accumulator();
        let mut card = ata.new_cardinalities();
        for batch in plan.iter() {
            let _batch = obs::span("paper", "batch");
            let rank = (world, &ata);
            let (left, right) = read_filter_pack(collection, batch, use_filter, rank, &mut kept)?;
            let _summa = obs::span("paper", "summa");
            ata.accumulate_batch_keyed(left, right, None, &mut acc, &mut card)?;
            ctx.record_superstep();
        }
        {
            let _reduce = obs::span("paper", "reduce");
            ata.finalize(&mut acc, &mut card)?;
        }
        let full = {
            let _gather = obs::span("paper", "gather");
            ata.gather_into_full(world, Cow::Owned(acc))?
        };
        kept.blocks = ata.into_buffers();
        *slot(ctx.rank()) = kept;
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
