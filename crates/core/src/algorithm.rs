//! The SimilarityAtScale drivers.
//!
//! Two execution paths cover the paper's algorithm (Listing 1):
//!
//! * [`similarity_at_scale`] — the shared-memory driver: one process
//!   multiplies each batch with the Rayon-parallel popcount-AND triangle
//!   kernel. This is what a single rank (one MPI process with on-node
//!   threading) executes, and what the examples use.
//! * [`similarity_at_scale_distributed`] — the simulated-distributed
//!   driver: `p` ranks run the full pipeline over the simulated runtime —
//!   the bitmap zero-row filter (an OR-allreduce of packed row bitmaps),
//!   per-rank bit-packed operand blocks, the rectangular-grid 2.5D SUMMA
//!   `AᵀA` (all `p` ranks active for every rank count), and the final
//!   layer/cardinality reductions — and the cost trackers record the
//!   communication the paper's evaluation is about.
//!
//! Both run each batch's read → zero-row filter → bit-pack through one
//! step, `read_filter_pack`, into buffers they keep from batch to batch
//! and park on the calling thread between runs. They differ only in the
//! filter's collective (none for the shared driver), the kernel, and
//! where the cardinalities come from.

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
use gas_sparse::dist::filter::{dist_row_filter_indexed, DistRowFilter, RowFilter};
use gas_sparse::semiring::PopcountAnd;
use gas_sparse::spgemm::ata_upper_accumulate;

use crate::batch::BatchPlan;
use crate::config::SimilarityConfig;
use crate::error::{CoreError, CoreResult};
use crate::filter::{bitmap_pays, observe_rows};
use crate::indicator::SampleCollection;
use crate::jaccard::SimilarityResult;

/// What a driver refills from batch to batch: its zero-row filter, its
/// two packed operand blocks and — on a rank of the distributed driver —
/// its SUMMA blocks.
#[derive(Default)]
struct RankBuffers {
    blocks: SummaBuffers,
    filter: DistRowFilter,
    left: BitMatrix,
    right: BitMatrix,
}

thread_local! {
    /// The buffers of the last run this thread made, indexed by rank, for
    /// its next run: rank threads live for one run, and the shared driver
    /// is rank 0. Freed with the thread; each buffer holds at most twice
    /// its last use.
    static PARKED: RefCell<Vec<RankBuffers>> = const { RefCell::new(Vec::new()) };
}

/// One batch `lo..hi` of Listing 1 up to its kernel, as both drivers run
/// it: read, filter and pack, on a rank of the distributed driver (its
/// world communicator and grid) or, given `None`, on the shared driver.
///
/// * `read` borrows the samples of the rank's row block `R_i` (the left
///   operand) and column block `C_j` (the right one) in the batch as
///   slices of the collection; the shared driver's two blocks are every
///   sample, and so coincide, as they do on the diagonal of square grids.
/// * `filter` (when `use_filter`) builds the batch's zero-row filter from
///   the right block's slices. Where [`bitmap_pays`] it is the bitmap of
///   the rows observed, kept in `kept.filter` and OR-allreduced across
///   the ranks, whose right blocks cover every sample; a hypersparse batch
///   takes the sorted union of the observed rows instead, allgathered
///   across the ranks. The shared driver skips the collectives. Every rank
///   reads the batch's entry count off the collection, so all pick the
///   same branch.
/// * `pack` renumbers and packs, in one pass over the slices, the word-row
///   chunks the rank cuts into SUMMA blocks ([`DistAta::owned_chunks`]) —
///   every word row on the shared driver — into `kept`'s operands; a chunk
///   a SUMMA block could not index is refused before packing.
///
/// Returns the packed `(left, right)` operands.
fn read_filter_pack<'k>(
    collection: &SampleCollection,
    (lo, hi): (u64, u64),
    use_filter: bool,
    rank: Option<(&Communicator, &DistAta)>,
    kept: &'k mut RankBuffers,
) -> CoreResult<(&'k BitMatrix, &'k BitMatrix)> {
    let batch_rows = (hi - lo) as usize;
    let comm = rank.map(|(comm, _)| comm);
    let (left_cols, right_cols) = match rank {
        Some((_, ata)) => (ata.my_row_range(), ata.my_col_range()),
        None => (0..collection.n(), 0..collection.n()),
    };
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
        if let Some(comm) = comm {
            let entries: usize = right_values.iter().map(|s| s.len()).sum();
            comm.add_mem_traffic((entries * std::mem::size_of::<u64>()) as u64);
        }
        if bitmap_pays(batch_rows, collection.batch_nnz(lo, hi) as usize) {
            let observe = |words: &mut [u64]| observe_rows(words, lo, &right_values);
            Some(kept.filter.rebuild(comm, batch_rows, observe)?)
        } else {
            let values = right_values.iter().copied().flatten();
            let rows: Vec<usize> = values.map(|&v| (v - lo) as usize).collect();
            sparse_filter = match comm {
                Some(comm) => dist_row_filter_indexed(comm, batch_rows, &rows)?,
                None => RowFilter::from_local(batch_rows, rows),
            };
            Some(&sparse_filter)
        }
    } else {
        None
    };
    let _pack = obs::span("paper", "pack");
    let nrows = filter.map_or(batch_rows, RowFilter::num_nonzero_rows);
    let word_rows = nrows.div_ceil(WORD_BITS);
    let all = 0..word_rows;
    let (left_keep, right_keep) = match rank {
        Some((_, ata)) => ata.owned_chunks(word_rows),
        None => (vec![all.clone()], vec![all]),
    };
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

/// Run SimilarityAtScale on shared memory.
///
/// Each batch runs the distributed driver's step on one rank with no
/// collective: it reads the samples' values in the batch as slices of the
/// collection, builds the zero-row filter from them and packs the whole
/// batch in one pass, into a filter and a packed matrix kept from batch to
/// batch (and parked on the calling thread between runs, as the
/// distributed driver's rank 0). The kernel then adds the upper triangle
/// of the popcount-AND `AᵀA` straight into `B` ([`ata_upper_accumulate`]),
/// which is mirrored once, after the last batch; the cardinalities are the
/// samples' lengths. `use_bitmask` is not read: the paper always masks.
///
/// Traced, a run is one `similarity_at_scale` span holding one `batch`
/// span per batch — `read`, `filter` (when filtering), `pack` and `kernel`
/// inside it — and a closing `finalize`.
pub fn similarity_at_scale(
    collection: &SampleCollection,
    config: &SimilarityConfig,
) -> CoreResult<SimilarityResult> {
    config.validate()?;
    let _run = obs::span("paper", "similarity_at_scale");
    let plan = BatchPlan::from_config(config, collection, 1)?;
    let n = collection.n();
    let mut b = DenseMatrix::<u64>::zeros(n, n);
    let mut kept =
        PARKED.with_borrow_mut(|parked| parked.first_mut().map(std::mem::take)).unwrap_or_default();
    for batch in plan.iter() {
        let _batch = obs::span("paper", "batch");
        let use_filter = config.use_zero_row_filter;
        let (packed, _) = read_filter_pack(collection, batch, use_filter, None, &mut kept)?;
        let _kernel = obs::span("paper", "kernel");
        ata_upper_accumulate::<PopcountAnd>(packed.as_csc(), &mut b)?;
    }
    PARKED.with_borrow_mut(|parked| match parked.first_mut() {
        Some(first) => *first = kept,
        None => parked.push(kept),
    });
    let _finalize = obs::span("paper", "finalize");
    b.mirror_upper()?;
    SimilarityResult::from_intersections(b, collection.cardinalities())
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
/// (every rank active), and each rank runs every batch through the shared
/// driver's read → filter → pack step: it reads the sample columns of its
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
        let mut kept = take(ctx.rank());
        let mut ata = {
            let _setup = obs::span("paper", "setup");
            DistAta::with_buffers(world, n, replication, std::mem::take(&mut kept.blocks))?
        };
        let mut acc = ata.new_accumulator();
        let mut card = ata.new_cardinalities();
        for batch in plan.iter() {
            let _batch = obs::span("paper", "batch");
            let rank = Some((world, &ata));
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
            ata.gather_full(world, &acc)?
        };
        kept.blocks = ata.into_buffers();
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
