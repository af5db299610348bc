//! Distributed `B = AᵀA` over a rectangular 2.5D processor grid
//! (Section III-C).
//!
//! The paper distributes the batched popcount-AND product over a
//! communication-avoiding processor grid. This implementation uses a
//! rectangular `r × q × c` grid: the replication factor `c` is clamped to
//! the largest divisor of `p` not exceeding the request, and each of the
//! `c` layers is the most-balanced rectangle `r × q = p / c` — so *every*
//! rank participates for every rank count (a square-only grid would idle
//! `p − s²·c` ranks, e.g. half of `p = 8, c = 1`).
//!
//! Rank `(i, j, k)` accumulates the output block `B[R_i, C_j]`, where the
//! samples are partitioned `r` ways into row blocks `R_i` and `q` ways
//! into column blocks `C_j`. The packed word rows of each batch are split
//! into `T · c` chunks with `T = lcm(r, q)` SUMMA steps per layer; layer
//! `k` contracts chunks `k·T .. (k+1)·T`. At step `t` the right operand
//! `A[chunk, C_j]` is held by grid row `t mod r` of each column
//! communicator and the left operand `A[chunk, R_i]` by grid column
//! `t mod q` of each row communicator, so each step is two broadcasts and
//! ownership of the chunks is spread evenly over the grid (`T/r` right
//! and `T/q` left chunks per rank). The `c` layer partials are reduced
//! over the fiber communicators at the end — the standard
//! communication-avoiding 2.5D schedule, generalized to rectangles.
//!
//! A block is charged the bytes of the layout its receiver's kernel reads,
//! narrow: the left operand column-major (the CSC arrays of
//! `A[chunk, R_i]`), the right operand word-row-major (the CSR arrays of
//! `A[chunk, C_j]`), both with `u32` offsets and indices beside the `u64`
//! words — 12 bytes per stored word. A chunk too large for `u32` is a
//! mis-planned batch and is rejected typed, not shipped wide. The owner
//! cuts either form straight from its packed batch (two binary searches
//! per column; the right operand is transposed once, here, not once per
//! receiver), validating it as `from_raw_parts` would, and takes the
//! chunk's cardinality popcounts from the same slices. Those cuts are the
//! only words of a batch the sweep reads, so a rank need pack only the
//! chunks it owns ([`DistAta::owned_chunks`]).
//!
//! Ranks share one address space, so a block travels as the matrix the
//! kernel reads, in an `Arc`: the binomial tree forwards a pointer, not
//! the block. Every receiver checks the block's arrays as
//! `from_raw_parts` would, refusing a corrupted one typed, runs its
//! kernel on the owner's cut and drops its pointer before it sends again.
//! Each rank keeps the blocks it cuts, one per owned SUMMA step and
//! operand, from batch to batch — and, through
//! [`DistAta::into_buffers`], from run to run — and refills them in place,
//! so a batch no larger than the one before allocates nothing of a
//! block's size (and a block holds at most twice its last cut). Before
//! the owner cuts a step again, every other member of the communicator
//! has owned a later step, so its block reached the owner after that
//! member had dropped the old one; the owner falls back to a fresh block
//! only if a receiver still holds it.
//!
//! On a `1 × 1` layer grid (p = 1, or p = c) no peer receives a block,
//! so the rank cuts none: it adds the upper triangle of its layer's chunk
//! of the packed batch in place ([`ata_upper_accumulate`], whose
//! Gustavson body reads a transpose kept in [`SummaBuffers`]), and
//! [`DistAta::finalize`] mirrors it after the layer reduce. Every step is
//! charged the block's Gustavson count `Σ_k nnz_A(k)·nnz_B(k)`, whichever
//! body multiplies it.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use gas_dstsim::comm::{Communicator, Msg};
use gas_dstsim::topology::ProcessorGrid;

use crate::bitmat::BitMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::semiring::PopcountAnd;
use crate::spgemm::{ata_upper_accumulate, atb_block_dense};

/// One SUMMA operand chunk as its owner cuts and sends it: the left operand
/// as the CSC matrix of `A[chunk, R_i]` ([`cut_csc`]), the right as the
/// CSR matrix of `A[chunk, C_j]` ([`cut_csr`]). `nbytes` reports what its
/// narrow form would occupy on a real network, so the cost trackers see
/// SUMMA's true traffic.
struct Block<M>(M);

/// The wire bytes of a block with `offsets` offsets and `nnz` stored
/// words: a 16-byte header, `u32` offsets and indices, `u64` words.
fn narrow_bytes(offsets: usize, nnz: usize) -> usize {
    16 + 4 * (offsets + nnz) + 8 * nnz
}

impl Msg for Block<CscMatrix<u64>> {
    fn nbytes(&self) -> usize {
        narrow_bytes(self.0.indptr().len(), self.0.nnz())
    }
}

impl Msg for Block<CsrMatrix<u64>> {
    fn nbytes(&self) -> usize {
        narrow_bytes(self.0.indptr().len(), self.0.nnz())
    }
}

impl Default for Block<CscMatrix<u64>> {
    fn default() -> Self {
        Block(CscMatrix::empty(0, 0))
    }
}

impl Default for Block<CsrMatrix<u64>> {
    fn default() -> Self {
        Block(CsrMatrix::empty(0, 0))
    }
}

/// Check that a block's `count` fits its 32-bit wire field — at most
/// `limit`, which is `u32::MAX` everywhere but in the test of this check —
/// or the typed refusal.
fn narrow(count: usize, what: &str, limit: usize) -> SparseResult<()> {
    if count > limit {
        return Err(SparseError::InvalidDistribution(format!(
            "a SUMMA chunk with {count} {what} exceeds the {limit} a wire block can index: \
             plan more batches or a larger grid"
        )));
    }
    Ok(())
}

/// Refuse a word-row chunk of `word_rows` rows that a SUMMA block's 32-bit
/// wire field cannot index: the bound every chunk a rank cuts is held to,
/// for a driver to check before it packs the chunk.
pub fn check_chunk_word_rows(word_rows: usize) -> SparseResult<()> {
    narrow(word_rows, "word rows", u32::MAX as usize)
}

/// Where the words of `batch[chunk, :]` are stored, column by column,
/// once every count a block of them carries fits its wire field.
struct ChunkSpans {
    spans: Vec<Range<usize>>,
    nnz: usize,
}

impl ChunkSpans {
    fn of(batch: &BitMatrix, chunk: &Range<usize>) -> SparseResult<ChunkSpans> {
        if chunk.start > chunk.end || chunk.end > batch.word_rows() {
            return Err(SparseError::IndexOutOfBounds {
                row: chunk.end,
                col: 0,
                nrows: batch.word_rows(),
                ncols: batch.ncols(),
            });
        }
        let spans: Vec<_> = (0..batch.ncols()).map(|j| batch.as_csc().col_span(j, chunk)).collect();
        let nnz = spans.iter().map(Range::len).sum();
        let limit = u32::MAX as usize;
        narrow(nnz, "stored words", limit)?;
        check_chunk_word_rows(chunk.len())?;
        narrow(batch.ncols(), "columns", limit)?;
        Ok(ChunkSpans { spans, nnz })
    }
}

/// Refill `held` with `batch[chunk, :]` column-major: the left operand of
/// a SUMMA step.
fn cut_csc(held: &mut CscMatrix<u64>, batch: &BitMatrix, chunk: Range<usize>) -> SparseResult<()> {
    let ChunkSpans { spans, nnz } = ChunkSpans::of(batch, &chunk)?;
    let csc = batch.as_csc();
    held.refill(chunk.len(), batch.ncols(), |mut indptr, mut indices, mut data| {
        indptr.reserve_exact(spans.len() + 1);
        indptr.push(0);
        indices.reserve_exact(nnz);
        data.reserve_exact(nnz);
        for span in spans {
            indices.extend(csc.indices()[span.clone()].iter().map(|&w| w - chunk.start));
            data.extend_from_slice(&csc.data()[span]);
            indptr.push(indices.len());
        }
        Ok((indptr, indices, data))
    })
}

/// Refill `held` with `batch[chunk, :]` word-row-major — the right operand
/// of a SUMMA step, transposed here so that no receiver has to — adding
/// the chunk's set bits of column `j` to `card[j]`.
fn cut_csr(
    held: &mut CsrMatrix<u64>,
    batch: &BitMatrix,
    chunk: Range<usize>,
    card: &mut [u64],
) -> SparseResult<()> {
    debug_assert_eq!(card.len(), batch.ncols(), "one counter per column");
    let ChunkSpans { spans, nnz } = ChunkSpans::of(batch, &chunk)?;
    let csc = batch.as_csc();
    let rows = chunk.len();
    held.refill(rows, batch.ncols(), |mut indptr, mut indices, mut data| {
        // Counting transpose: words per row, prefix sum, then scatter
        // while walking the columns in order (so every row lists them
        // ascending), with `indptr[r]` as row `r`'s cursor — which leaves
        // it at row `r + 1`'s start, so the offsets shift up one after.
        indptr.reserve_exact(rows + 1);
        indptr.resize(rows + 1, 0);
        for span in &spans {
            for &w in &csc.indices()[span.clone()] {
                indptr[w - chunk.start + 1] += 1;
            }
        }
        for r in 0..rows {
            indptr[r + 1] += indptr[r];
        }
        indices.reserve_exact(nnz);
        indices.resize(nnz, 0);
        data.reserve_exact(nnz);
        data.resize(nnz, 0);
        for ((j, span), count) in spans.into_iter().enumerate().zip(card) {
            for (&w, &word) in csc.indices()[span.clone()].iter().zip(&csc.data()[span]) {
                let slot = &mut indptr[w - chunk.start];
                indices[*slot] = j;
                data[*slot] = word;
                *slot += 1;
                *count += u64::from(word.count_ones());
            }
        }
        indptr.copy_within(..rows, 1);
        indptr[0] = 0;
        Ok((indptr, indices, data))
    })
}

/// Step operands `(left, right)` as this rank's kernel reads them, each
/// with whether this rank cut it. A block another rank cut crossed the
/// wire, so its arrays are checked as `from_raw_parts` checks them, and a
/// corrupted one is refused typed before the kernel reads it; the owner
/// checked its own cut as it refilled it.
fn received<'a>(
    (left, left_mine): (&'a Block<CscMatrix<u64>>, bool),
    (right, right_mine): (&'a Block<CsrMatrix<u64>>, bool),
) -> SparseResult<(&'a CscMatrix<u64>, &'a CsrMatrix<u64>)> {
    if !left_mine {
        left.0.check()?;
    }
    if !right_mine {
        right.0.check()?;
    }
    Ok((&left.0, &right.0))
}

/// Contiguous block `idx` of `0..total` split into `parts` near-equal
/// pieces (the same arithmetic on every rank, so all ranks agree on the
/// distribution).
fn block_range(total: usize, parts: usize, idx: usize) -> Range<usize> {
    (idx * total / parts)..((idx + 1) * total / parts)
}

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// The SUMMA operand blocks a rank cuts, kept across batches — and,
/// through [`DistAta::into_buffers`], across runs: per SUMMA step, the
/// left and the right block, cut for the steps whose operand the rank
/// owns (and shared with the receivers while they read it), empty for the
/// others; on a `1 × 1` layer grid, which cuts none, the CSR view of the
/// packed batch that the Gustavson body reads.
#[derive(Default)]
pub struct SummaBuffers {
    left: Vec<Arc<Block<CscMatrix<u64>>>>,
    right: Vec<Arc<Block<CsrMatrix<u64>>>>,
    transpose: Block<CsrMatrix<u64>>,
}

/// The block in `slot`, to be written: the one held when no receiver
/// still holds it, else a fresh one.
fn unshared<T: Default>(slot: &mut Arc<T>) -> &mut T {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::default();
    }
    Arc::get_mut(slot).expect("a fresh block is unshared")
}

/// Per-rank handle for the distributed `AᵀA` of one run.
///
/// Constructed inside a rank closure from the world communicator; owns
/// the grid sub-communicators the SUMMA schedule needs.
pub struct DistAta {
    grid: ProcessorGrid,
    /// Rows of the layer grid (sample row-block count).
    r: usize,
    /// Columns of the layer grid (sample column-block count).
    q: usize,
    /// Number of replication layers in use.
    c: usize,
    /// SUMMA steps per layer: `lcm(r, q)`.
    steps: usize,
    /// Number of samples (order of `B`).
    n: usize,
    /// Grid coordinates of this rank.
    coords: [usize; 3],
    row_comm: Communicator,
    col_comm: Communicator,
    fiber_comm: Communicator,
    grid_comm: Communicator,
    blocks: SummaBuffers,
}

impl DistAta {
    /// The grid [`DistAta::new`] selects for `p` ranks with requested
    /// replication factor `replication`: deterministic, so drivers can
    /// report the layout without constructing a runtime.
    pub fn select_grid(p: usize, replication: usize) -> SparseResult<ProcessorGrid> {
        if replication == 0 {
            return Err(SparseError::InvalidDistribution(
                "replication must be at least 1".to_string(),
            ));
        }
        Ok(ProcessorGrid::rect_3d(p, replication)?)
    }

    /// Set up the rectangular 2.5D distribution over `world` for an
    /// `n`-sample run with requested replication factor `replication`
    /// (clamped to the largest divisor of the world size). Every rank of
    /// `world` participates in the product.
    pub fn new(world: &Communicator, n: usize, replication: usize) -> SparseResult<DistAta> {
        DistAta::with_buffers(world, n, replication, SummaBuffers::default())
    }

    /// [`DistAta::new`] over the block buffers an earlier handle gave back
    /// ([`DistAta::into_buffers`]): the sweep refills them, so a run whose
    /// blocks fit them allocates none. Nothing of the earlier run carries
    /// over but their capacity.
    pub fn with_buffers(
        world: &Communicator,
        n: usize,
        replication: usize,
        blocks: SummaBuffers,
    ) -> SparseResult<DistAta> {
        let p = world.size();
        let grid = Self::select_grid(p, replication)?;
        let (r, q, c) = (grid.rows(), grid.cols(), grid.layers());
        let me = world.rank();
        // Collective over the world; the grid numbering equals the world
        // numbering, so the split keeps every rank (color 0).
        let grid_comm = world.split(0)?;
        let coords = grid.coords_of(me)?;
        let row_comm = grid.row_comm(&grid_comm)?;
        let col_comm = grid.col_comm(&grid_comm)?;
        let fiber_comm = grid.fiber_comm(&grid_comm)?;
        Ok(DistAta {
            grid,
            r,
            q,
            c,
            steps: lcm(r, q),
            n,
            coords,
            row_comm,
            col_comm,
            fiber_comm,
            grid_comm,
            blocks,
        })
    }

    /// This handle's block buffers, for [`DistAta::with_buffers`].
    pub fn into_buffers(self) -> SummaBuffers {
        self.blocks
    }

    /// The processor grid in use.
    pub fn grid(&self) -> &ProcessorGrid {
        &self.grid
    }

    /// Number of ranks participating in the product: with rectangular
    /// grids this is always the full world size.
    pub fn active_ranks(&self) -> usize {
        self.r * self.q * self.c
    }

    /// SUMMA steps per layer (`lcm(r, q)`).
    pub fn steps_per_layer(&self) -> usize {
        self.steps
    }

    /// Always 0: blocks are read where their owner cut them, so no
    /// decode is cached. Kept for callers that report a hit ratio.
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Always 0, as [`DistAta::cache_hits`].
    pub fn cache_misses(&self) -> u64 {
        0
    }

    /// The samples of this rank's output *column* block `C_j` (block `j`
    /// of the `q`-way partition). The rank reads these columns as the
    /// right SUMMA operand.
    pub fn my_col_range(&self) -> Range<usize> {
        block_range(self.n, self.q, self.coords[1])
    }

    /// The samples of this rank's output *row* block `R_i` (block `i` of
    /// the `r`-way partition). The rank reads these columns as the left
    /// SUMMA operand.
    pub fn my_row_range(&self) -> Range<usize> {
        block_range(self.n, self.r, self.coords[0])
    }

    /// Word-row chunk contracted at SUMMA step `t` of this rank's layer,
    /// for a packed batch with `word_rows` rows: chunk `k·T + t` of the
    /// `T·c`-way partition.
    fn step_chunk(&self, word_rows: usize, t: usize) -> Range<usize> {
        block_range(word_rows, self.steps * self.c, self.coords[2] * self.steps + t)
    }

    /// The word-row chunks of a `word_rows`-row packed batch whose blocks
    /// this rank cuts in [`Self::accumulate_batch_keyed`], ascending, as
    /// `(left, right)`: the chunks of the steps `t` of its layer with
    /// `t mod q == j` for the left operand and `t mod r == i` for the
    /// right. The sweep reads no other word of either operand, so a batch
    /// packed in these chunks only (see
    /// [`BitMatrix::refill_from_batch_slices`]) contracts to the same result.
    pub fn owned_chunks(&self, word_rows: usize) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let [i, j, _] = self.coords;
        let chunks = |owner: fn(&Self, usize) -> usize, me: usize| -> Vec<Range<usize>> {
            let mine = (0..self.steps).filter(|&t| owner(self, t) == me);
            mine.map(|t| self.step_chunk(word_rows, t)).collect()
        };
        (chunks(Self::left_owner, j), chunks(Self::right_owner, i))
    }

    /// The grid column whose ranks hold the left operand of step `t`: local
    /// rank `t mod q` of each row communicator.
    fn left_owner(&self, t: usize) -> usize {
        t % self.q
    }

    /// The grid row whose ranks hold the right operand of step `t`: local
    /// rank `t mod r` of each column communicator.
    fn right_owner(&self, t: usize) -> usize {
        t % self.r
    }

    /// Zeroed accumulator for this rank's output block `B[R_i, C_j]`.
    pub fn new_accumulator(&self) -> DenseMatrix<u64> {
        DenseMatrix::zeros(self.my_row_range().len(), self.my_col_range().len())
    }

    /// Zeroed per-sample cardinality accumulator (global length `n`).
    pub fn new_cardinalities(&self) -> Vec<u64> {
        vec![0u64; self.n]
    }

    /// Contract one batch: `left` is this rank's packed row-block columns
    /// (`A[:, R_i]`) and `right` its column-block columns (`A[:, C_j]`),
    /// both with the batch's full word-row extent but read only in the
    /// chunks [`Self::owned_chunks`] lists (`left` not at all on a `1 × 1`
    /// layer grid, where the two are one block): words elsewhere may be absent.
    /// Runs the SUMMA sweep of this rank's layer, accumulating into `acc`
    /// and adding the column popcounts of the chunks this rank owns into
    /// `card` (on a `1 × 1` layer grid [`Self::finalize`] adds them, off
    /// `acc`'s diagonal).
    ///
    /// The third argument, a filter key, is not read (no decode is cached);
    /// it stays for the callers that pass one.
    pub fn accumulate_batch_keyed(
        &mut self,
        left: &BitMatrix,
        right: &BitMatrix,
        _filter_key: Option<u64>,
        acc: &mut DenseMatrix<u64>,
        card: &mut [u64],
    ) -> SparseResult<()> {
        let [i, j, _] = self.coords;
        let cols = self.my_col_range();
        let rows = self.my_row_range();
        if right.ncols() != cols.len() {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "right batch block has {} columns but this rank owns {} column-block samples",
                    right.ncols(),
                    cols.len()
                ),
            });
        }
        if left.ncols() != rows.len() {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "left batch block has {} columns but this rank owns {} row-block samples",
                    left.ncols(),
                    rows.len()
                ),
            });
        }
        if left.word_rows() != right.word_rows() {
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "left and right blocks disagree on word rows: {} vs {}",
                    left.word_rows(),
                    right.word_rows()
                ),
            });
        }
        if card.len() != self.n {
            return Err(SparseError::ShapeMismatch {
                context: format!("{} cardinality counters for {} samples", card.len(), self.n),
            });
        }
        let word_rows = right.word_rows();
        if self.r * self.q == 1 {
            // No peer receives a block, so none is cut: the one step adds
            // this layer's chunk in place, and `finalize` reads its
            // cardinalities, `Σ_k popcount(a_kj & a_kj)`, off the diagonal.
            let _step = gas_dstsim::obs::span("paper", "summa_step");
            let chunk = self.step_chunk(word_rows, 0);
            let transpose = &mut self.blocks.transpose.0;
            let ops = ata_upper_accumulate::<PopcountAnd>(right.as_csc(), chunk, acc, transpose)?;
            self.grid_comm.add_flops(ops);
            return Ok(());
        }
        self.blocks.left.resize_with(self.steps, Arc::default);
        self.blocks.right.resize_with(self.steps, Arc::default);
        for t in 0..self.steps {
            let _step = gas_dstsim::obs::span("paper", "summa_step");
            let chunk = self.step_chunk(word_rows, t);
            let (left_owner, right_owner) = (self.left_owner(t), self.right_owner(t));
            let blocks = &mut self.blocks;
            // Right operand A[chunk, C_j]. Its owner is the unique holder
            // of (chunk, C_j): the popcounts of its cut are this chunk's
            // cardinality contribution.
            let right_seed = if i == right_owner {
                let held = &mut unshared(&mut blocks.right[t]).0;
                cut_csr(held, right, chunk.clone(), &mut card[cols.clone()])?;
                Some(Arc::clone(&blocks.right[t]))
            } else {
                None
            };
            let right_wire = self.col_comm.bcast(right_owner, right_seed)?;
            // Left operand A[chunk, R_i].
            let left_seed = if j == left_owner {
                cut_csc(&mut unshared(&mut blocks.left[t]).0, left, chunk)?;
                Some(Arc::clone(&blocks.left[t]))
            } else {
                None
            };
            let left_wire = self.row_comm.bcast(left_owner, left_seed)?;
            let (left_block, right_block) =
                received((&left_wire, j == left_owner), (&right_wire, i == right_owner))?;
            let ops = atb_block_dense::<PopcountAnd>(left_block, right_block, acc)?;
            self.grid_comm.add_flops(ops);
            // Both pointers drop here, before this rank sends again: see
            // the module doc.
        }
        Ok(())
    }

    /// Reduce the layer partials: after the last batch, fiber-allreduce
    /// the accumulators across the `c` layers and allreduce the
    /// cardinalities so every rank holds the global per-sample counts.
    pub fn finalize(&self, acc: &mut DenseMatrix<u64>, card: &mut [u64]) -> SparseResult<()> {
        let one_by_one = self.r * self.q == 1;
        if one_by_one {
            let diagonal = acc.as_slice().iter().step_by(self.n + 1);
            card.iter_mut().zip(diagonal).for_each(|(c, &d)| *c += d);
        }
        if self.c > 1 {
            let summed = self.fiber_comm.allreduce_sum(acc.as_slice())?;
            acc.as_mut_slice().copy_from_slice(&summed);
        }
        let full = self.grid_comm.allreduce_sum(&*card)?;
        card.copy_from_slice(&full);
        // A `1 × 1` layer grid added the upper triangle only.
        if one_by_one {
            acc.mirror_upper()?;
        }
        Ok(())
    }

    /// [`Self::gather_into_full`] of a borrowed accumulator.
    pub fn gather_full(
        &self,
        world: &Communicator,
        acc: &DenseMatrix<u64>,
    ) -> SparseResult<Option<DenseMatrix<u64>>> {
        self.gather_into_full(world, Cow::Borrowed(acc))
    }

    /// Gather the distributed output blocks of layer 0 onto world rank 0
    /// and assemble the full `n × n` matrix there: `Some(B)` on rank 0,
    /// `None` elsewhere. Collective over the world. Rank 0 sends itself
    /// nothing: it copies its block from `acc`, or, on a `1 × 1` layer
    /// grid, returns `acc` (a move, given it owned).
    pub fn gather_into_full(
        &self,
        world: &Communicator,
        acc: Cow<'_, DenseMatrix<u64>>,
    ) -> SparseResult<Option<DenseMatrix<u64>>> {
        let me = world.rank();
        let payload = if self.coords[2] == 0 && me != 0 { acc.as_slice() } else { &[] };
        let Some(blocks) = world.gatherv(0, payload)? else {
            return Ok(None);
        };
        if self.r * self.q == 1 {
            return Ok(Some(acc.into_owned()));
        }
        let mut full = DenseMatrix::<u64>::zeros(self.n, self.n);
        for (rank, data) in blocks.iter().enumerate() {
            let [i, j, k] = self.grid.coords_of(rank)?;
            if k != 0 {
                continue;
            }
            let data = if rank == me { acc.as_slice() } else { data.as_slice() };
            let rows = block_range(self.n, self.r, i);
            let cols = block_range(self.n, self.q, j);
            if data.len() != rows.len() * cols.len() {
                return Err(SparseError::ShapeMismatch {
                    context: format!(
                        "gathered block from rank {rank} has {} entries for a {}x{} block",
                        data.len(),
                        rows.len(),
                        cols.len()
                    ),
                });
            }
            let width = cols.len();
            for (bi, r) in rows.enumerate() {
                let row = &mut full.row_mut(r)[cols.clone()];
                row.copy_from_slice(&data[bi * width..(bi + 1) * width]);
            }
        }
        Ok(Some(full))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmat::WORD_BITS;
    use crate::semiring::PlusTimes;
    use crate::spgemm::ata_dense;
    use crate::testutil::Rng;
    use gas_dstsim::runtime::Runtime;

    /// Column lists of a small boolean indicator matrix: 200 attribute
    /// rows, 7 samples with overlapping supports.
    fn columns() -> Vec<Vec<usize>> {
        (0..7)
            .map(|j| (0..200).filter(|r| (r * 7 + j * 3) % 13 < 2 || r % (j + 2) == 0).collect())
            .collect()
    }

    fn reference(rows: usize, columns: &[Vec<usize>]) -> DenseMatrix<u64> {
        let nnz = columns.iter().map(Vec::len).sum();
        let mut coo = crate::coo::CooMatrix::<u64>::with_capacity(rows, columns.len(), nnz);
        for (j, col) in columns.iter().enumerate() {
            for &r in col {
                coo.push(r, j, 1).unwrap();
            }
        }
        ata_dense::<PlusTimes<u64>>(&coo.to_csr())
    }

    fn pack_blocks(ata: &DistAta, rows: usize, columns: &[Vec<usize>]) -> (BitMatrix, BitMatrix) {
        let pack = |range: Range<usize>| {
            let local: Vec<Vec<usize>> = range.map(|jj| columns[jj].clone()).collect();
            BitMatrix::from_columns(rows, &local).unwrap()
        };
        (pack(ata.my_row_range()), pack(ata.my_col_range()))
    }

    fn run_distributed(
        p: usize,
        replication: usize,
        rows: usize,
        columns: &[Vec<usize>],
    ) -> (DenseMatrix<u64>, Vec<u64>, u64) {
        let n = columns.len();
        let out = Runtime::new(p)
            .run(|ctx| {
                let world = ctx.world();
                let mut ata = DistAta::new(world, n, replication).unwrap();
                let mut acc = ata.new_accumulator();
                let mut card = ata.new_cardinalities();
                let (left, right) = pack_blocks(&ata, rows, columns);
                ata.accumulate_batch_keyed(&left, &right, None, &mut acc, &mut card).unwrap();
                ata.finalize(&mut acc, &mut card).unwrap();
                let full = ata.gather_full(world, &acc).unwrap();
                (full, card)
            })
            .unwrap();
        let bytes = out.aggregate().total_bytes_sent;
        let mut results = out.results;
        let (full, card) = results.swap_remove(0);
        (full.expect("rank 0 assembles the full matrix"), card, bytes)
    }

    #[test]
    fn distributed_ata_matches_local_reference() {
        let columns = columns();
        let expected = reference(200, &columns);
        let expected_card: Vec<u64> = columns.iter().map(|col| col.len() as u64).collect();
        for (p, c) in [
            (1, 1),
            (2, 1),
            (2, 2),
            (4, 1),
            (5, 1),
            (6, 1),
            (6, 2),
            (8, 1),
            (8, 2),
            (9, 1),
            (12, 2),
        ] {
            let (full, card, _) = run_distributed(p, c, 200, &columns);
            assert_eq!(full, expected, "p = {p}, c = {c}");
            assert_eq!(card, expected_card, "p = {p}, c = {c}");
        }
    }

    /// Per rank, the accumulator and cardinalities after one batch; then
    /// the run's total bytes sent and flops.
    type Contraction = (Vec<(DenseMatrix<u64>, Vec<u64>)>, u64, u64);

    /// The [`Contraction`] of one batch whose operands
    /// `pack(ata, rows, columns)` built.
    fn per_rank_contraction(
        p: usize,
        replication: usize,
        rows: usize,
        columns: &[Vec<usize>],
        pack: impl Fn(&DistAta, usize, &[Vec<usize>]) -> (BitMatrix, BitMatrix) + Sync,
    ) -> Contraction {
        let out = Runtime::new(p)
            .run(|ctx| {
                let mut ata = DistAta::new(ctx.world(), columns.len(), replication).unwrap();
                let mut acc = ata.new_accumulator();
                let mut card = ata.new_cardinalities();
                let (left, right) = pack(&ata, rows, columns);
                ata.accumulate_batch_keyed(&left, &right, None, &mut acc, &mut card).unwrap();
                (acc, card)
            })
            .unwrap();
        let total = out.aggregate();
        (out.results, total.total_bytes_sent, total.total_flops)
    }

    #[test]
    fn operands_packed_in_the_owned_chunks_only_contract_like_full_ones() {
        // The rows of `columns` whose word lies in one of `chunks`: packed
        // with the full extent, they store words in those chunks only.
        let restrict = |rows: usize, columns: &[Vec<usize>], chunks: &[Range<usize>]| {
            let owned = |r: &usize| chunks.iter().any(|c| c.contains(&(r / WORD_BITS)));
            let kept: Vec<Vec<usize>> =
                columns.iter().map(|col| col.iter().copied().filter(owned).collect()).collect();
            BitMatrix::from_columns(rows, &kept).unwrap()
        };
        let owned_only = |ata: &DistAta, rows: usize, columns: &[Vec<usize>]| {
            let (left_chunks, right_chunks) = ata.owned_chunks(rows.div_ceil(WORD_BITS));
            let block = |range: Range<usize>| columns[range].to_vec();
            (
                restrict(rows, &block(ata.my_row_range()), &left_chunks),
                restrict(rows, &block(ata.my_col_range()), &right_chunks),
            )
        };
        // 200 rows are 4 word rows, fewer than most grids' `T · c` chunks;
        // 5 000 rows are 79.
        let mut rng = Rng(34);
        for (rows, columns) in [(200, columns()), (5_000, rng.columns(5_000, 9, 4))] {
            for (p, c) in [
                (1, 1),
                (2, 1),
                (2, 2),
                (4, 1),
                (5, 1),
                (6, 1),
                (6, 2),
                (8, 1),
                (8, 2),
                (9, 1),
                (12, 2),
            ] {
                let expected = per_rank_contraction(p, c, rows, &columns, pack_blocks);
                let got = per_rank_contraction(p, c, rows, &columns, owned_only);
                assert_eq!(got, expected, "{rows} rows, p = {p}, c = {c}");
            }
        }
    }

    #[test]
    fn rectangular_grids_use_every_rank() {
        // p = 8, c = 1 previously ran on a 2×2 square subgrid (4 active
        // ranks); the rectangular 2×4 grid must give every rank both an
        // output block and owned SUMMA chunks.
        let out = Runtime::new(8)
            .run(|ctx| {
                let ata = DistAta::new(ctx.world(), 64, 1).unwrap();
                let owned_right = (0..ata.steps_per_layer())
                    .filter(|t| {
                        t % ata.grid().rows() == ata.grid().coords_of(ctx.rank()).unwrap()[0]
                    })
                    .count();
                (
                    ata.active_ranks(),
                    ata.my_col_range().len(),
                    ata.my_row_range().len(),
                    owned_right,
                )
            })
            .unwrap();
        assert_eq!(out.results.len(), 8);
        for (rank, (nactive, ncols, nrows, owned)) in out.results.iter().enumerate() {
            assert_eq!(*nactive, 8);
            assert!(*ncols > 0, "rank {rank} owns no output columns");
            assert!(*nrows > 0, "rank {rank} owns no output rows");
            assert!(*owned > 0, "rank {rank} owns no SUMMA chunks");
        }
    }

    #[test]
    fn larger_grids_move_less_data_per_rank() {
        // Needs a workload large enough that SUMMA block traffic dominates
        // the fixed per-rank costs (communicator splits, block headers).
        let rows = 20_000;
        let columns: Vec<Vec<usize>> = (0..32)
            .map(|j| {
                (0..rows).filter(|r| (r * 31 + j * 7) % 29 == 0 || r % (j + 11) == 0).collect()
            })
            .collect();
        let (full4, _, bytes4) = run_distributed(4, 1, rows, &columns);
        let (full16, _, bytes16) = run_distributed(16, 1, rows, &columns);
        assert_eq!(full4, full16);
        assert!(
            bytes16 / 16 < bytes4 / 4,
            "per-rank bytes should shrink: p=4 {} vs p=16 {}",
            bytes4 / 4,
            bytes16 / 16
        );
    }

    #[test]
    fn blocks_are_refilled_from_batch_to_batch_and_run_to_run() {
        let columns = columns();
        let n = columns.len();
        // Where each kept block's words live, per step and operand.
        let addresses = |blocks: &SummaBuffers| -> Vec<usize> {
            let left = blocks.left.iter().map(|b| b.0.data().as_ptr() as usize);
            left.chain(blocks.right.iter().map(|b| b.0.data().as_ptr() as usize)).collect()
        };
        for (p, c) in [(1, 1), (2, 2), (4, 1), (6, 1), (8, 2)] {
            let run = |kept: Vec<SummaBuffers>| {
                let kept: Vec<_> = kept.into_iter().map(std::sync::Mutex::new).collect();
                let out = Runtime::new(p)
                    .run(|ctx| {
                        let mine = std::mem::take(&mut *kept[ctx.rank()].lock().unwrap());
                        let mut ata = DistAta::with_buffers(ctx.world(), n, c, mine).unwrap();
                        let mut acc = ata.new_accumulator();
                        let mut card = ata.new_cardinalities();
                        let (left, right) = pack_blocks(&ata, 200, &columns);
                        let mut seen = Vec::new();
                        for _ in 0..3 {
                            ata.accumulate_batch_keyed(&left, &right, None, &mut acc, &mut card)
                                .unwrap();
                            seen.push(addresses(&ata.blocks));
                        }
                        (seen, acc, ata.into_buffers())
                    })
                    .unwrap();
                out.results
            };
            let first = run((0..p).map(|_| SummaBuffers::default()).collect());
            let mut kept = Vec::new();
            let mut expected = Vec::new();
            for (rank, (seen, acc, blocks)) in first.into_iter().enumerate() {
                assert!(seen.windows(2).all(|w| w[0] == w[1]), "p = {p}, rank {rank}");
                // A 1 × 1 layer grid contracts its operand in place.
                assert_eq!(seen[0].is_empty(), p == c, "p = {p}, rank {rank}");
                expected.push((seen[0].clone(), acc));
                kept.push(blocks);
            }
            for (rank, (seen, acc, _)) in run(kept).into_iter().enumerate() {
                assert_eq!(seen[0], expected[rank].0, "p = {p}, rank {rank}: the next run");
                assert_eq!(acc, expected[rank].1, "p = {p}, rank {rank}");
            }
        }
    }

    #[test]
    fn cut_blocks_are_the_selected_chunk_in_both_layouts() {
        let mut rng = Rng(24);
        // One block of each layout, refilled by every chunk below in turn
        // (larger and smaller ones, and empty ones).
        let (mut left, mut right) = (CscMatrix::empty(0, 0), CsrMatrix::empty(0, 0));
        // Boolean rows: none, under one word, exactly one word, and
        // batches narrower and wider than the `T · c` split below.
        for nrows in [0usize, 1, 64, 65, 200, 1000] {
            for ncols in [0usize, 1, 5] {
                let percent = [0, 3, 40][rng.below(3)];
                let mut columns = rng.columns(nrows, ncols, percent);
                if let Some(first) = columns.first_mut() {
                    first.clear();
                }
                let batch = BitMatrix::from_columns(nrows, &columns).unwrap();
                for parts in [1usize, 2, 3, 6, 8] {
                    for idx in 0..parts {
                        let chunk = block_range(batch.word_rows(), parts, idx);
                        let ctx = format!("{nrows}x{ncols} at {percent}%, chunk {idx} of {parts}");
                        let selected = batch.select_word_rows(chunk.clone()).unwrap();
                        let nnz = selected.nnz_words();

                        cut_csc(&mut left, &batch, chunk.clone()).unwrap();
                        assert_eq!(&left, selected.as_csc(), "{ctx}");
                        let bytes = Block(left.clone()).nbytes();
                        assert_eq!(bytes, 16 + 4 * (ncols + 1 + nnz) + 8 * nnz, "{ctx}");

                        let mut card = vec![7u64; ncols];
                        cut_csr(&mut right, &batch, chunk.clone(), &mut card).unwrap();
                        let counted: Vec<u64> = card.iter().map(|c| c - 7).collect();
                        assert_eq!(counted, selected.col_popcounts(), "{ctx}");
                        assert_eq!(right, selected.to_csr(), "{ctx}");
                        let bytes = Block(right.clone()).nbytes();
                        assert_eq!(bytes, 16 + 4 * (chunk.len() + 1 + nnz) + 8 * nnz, "{ctx}");
                    }
                }
            }
        }
        let batch = BitMatrix::from_columns(130, &[vec![0, 64, 129]]).unwrap();
        assert!(matches!(
            cut_csc(&mut left, &batch, 2..4),
            Err(SparseError::IndexOutOfBounds { row: 4, nrows: 3, .. })
        ));
    }

    #[test]
    fn corrupted_blocks_fail_typed_at_the_receiver() {
        let batch = BitMatrix::from_columns(130, &[vec![0, 64, 129], vec![1], vec![]]).unwrap();
        let (mut left, mut right) = (CscMatrix::empty(0, 0), CsrMatrix::empty(0, 0));
        cut_csc(&mut left, &batch, 0..3).unwrap();
        cut_csr(&mut right, &batch, 0..3, &mut [0; 3]).unwrap();
        let (left, right) = (Block(left), Block(right));
        let refusal = |left: &Block<CscMatrix<u64>>, right: &Block<CsrMatrix<u64>>| {
            received((left, false), (right, false)).err()
        };
        assert!(refusal(&left, &right).is_none());
        type Corrupt = fn(&mut Vec<usize>, &mut Vec<usize>, &mut Vec<u64>);
        let corruptions: [(Corrupt, bool); 3] = [
            // An index at the minor dimension (3 word rows / 3 columns).
            (|_, indices, _| indices[0] = 3, true),
            (|indptr, _, _| indptr.swap(1, 2), false),
            (|_, _, data| data.truncate(data.len() - 1), false),
        ];
        for (corrupt, out_of_bounds) in corruptions {
            let mut bad_left = Block(left.0.clone());
            let (indptr, indices, data) = bad_left.0.parts_mut();
            corrupt(indptr, indices, data);
            let mut bad_right = Block(right.0.clone());
            let (indptr, indices, data) = bad_right.0.parts_mut();
            corrupt(indptr, indices, data);
            for got in [refusal(&bad_left, &right), refusal(&left, &bad_right)] {
                match got {
                    Some(SparseError::IndexOutOfBounds { .. }) => assert!(out_of_bounds),
                    Some(SparseError::ShapeMismatch { .. }) => assert!(!out_of_bounds),
                    other => panic!("expected a typed refusal, got {other:?}"),
                }
            }
            // The owner checked its cut as it refilled it.
            assert!(received((&bad_left, true), (&bad_right, true)).is_ok());
        }
    }

    #[test]
    fn counts_past_the_wire_limit_are_refused_typed() {
        assert!(narrow(0, "columns", 10).is_ok());
        assert!(narrow(10, "columns", 10).is_ok());
        assert!(narrow(u32::MAX as usize, "word rows", u32::MAX as usize).is_ok());
        match narrow(11, "stored words", 10) {
            Err(SparseError::InvalidDistribution(msg)) => {
                assert!(msg.contains("11 stored words") && msg.contains("the 10"), "{msg}")
            }
            other => panic!("expected InvalidDistribution, got {other:?}"),
        }
    }

    #[test]
    fn zero_replication_is_rejected() {
        let out = Runtime::new(2).run(|ctx| DistAta::new(ctx.world(), 4, 0).is_err()).unwrap();
        assert!(out.results.iter().all(|&e| e));
    }

    #[test]
    fn select_grid_is_deterministic_and_total() {
        for p in 1..=16 {
            for c in 1..=3 {
                let g = DistAta::select_grid(p, c).unwrap();
                assert_eq!(g.size(), p);
            }
        }
        assert!(DistAta::select_grid(4, 0).is_err());
    }
}
