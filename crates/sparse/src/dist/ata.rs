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
//! A block travels in the layout its receiver's kernel reads, narrow: the
//! left operand column-major (the CSC arrays of `A[chunk, R_i]`), the right
//! operand word-row-major (the CSR arrays of `A[chunk, C_j]`), both with
//! `u32` offsets and indices beside the `u64` words — 12 bytes per stored
//! word. The owner cuts either form straight from its packed batch (two
//! binary searches per column; the right operand is transposed once, here,
//! not once per receiver) and takes the chunk's cardinality popcounts from
//! the same slices. Those cuts are the only words of a batch the sweep
//! reads, so a rank need pack only the chunks it owns
//! ([`DistAta::owned_chunks`]). A receiver widens the arrays and
//! validates them through `from_raw_parts` before the kernel sees them.
//! [`DistAta`] keeps the decoded blocks per SUMMA step, keyed on the
//! active zero-row filter: when consecutive batches carry the same filter
//! key and a step's block arrives equal, element for element, to the
//! decoded one held, the decode is skipped. A chunk too large for `u32` is
//! a mis-planned batch and is rejected typed, not shipped wide.

use std::ops::Range;

use gas_dstsim::comm::{Communicator, Msg};
use gas_dstsim::topology::ProcessorGrid;

use crate::bitmat::BitMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::semiring::PopcountAnd;
use crate::spgemm::atb_block_dense;

/// Wire form of one SUMMA operand chunk: compressed arrays over a major
/// axis (`indptr`) listing minor-axis `indices` beside the packed `data`
/// words. Which axis is which is the sender's and receiver's shared
/// knowledge of the schedule: the left operand is cut column-major
/// ([`WireBlock::cut_csc`] / [`WireBlock::into_csc`]), the right one
/// word-row-major ([`WireBlock::cut_csr`] / [`WireBlock::into_csr`]).
/// `nbytes` reports what the block would occupy on a real network, so the
/// cost trackers see SUMMA's true traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireBlock {
    word_rows: u32,
    ncols: u32,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    data: Vec<u64>,
}

impl Msg for WireBlock {
    fn nbytes(&self) -> usize {
        16 + 4 * (self.indptr.len() + self.indices.len()) + 8 * self.data.len()
    }
}

/// A count a [`WireBlock`] stores in 32 bits — at most `limit`, which is
/// `u32::MAX` everywhere but in the test of this check — or the typed
/// refusal.
fn narrow(count: usize, what: &str, limit: usize) -> SparseResult<u32> {
    if count > limit {
        return Err(SparseError::InvalidDistribution(format!(
            "a SUMMA chunk with {count} {what} exceeds the {limit} a wire block can index: \
             plan more batches or a larger grid"
        )));
    }
    Ok(count as u32)
}

fn widen(wire: &[u32]) -> Vec<usize> {
    wire.iter().map(|&v| v as usize).collect()
}

fn same_indices(wire: &[u32], held: &[usize]) -> bool {
    wire.len() == held.len() && wire.iter().zip(held).all(|(&a, &b)| a as usize == b)
}

/// Where the words of `batch[chunk, :]` are stored, column by column,
/// with the counts a [`WireBlock`] of them carries.
struct ChunkSpans {
    spans: Vec<Range<usize>>,
    nnz: usize,
    word_rows: u32,
    ncols: u32,
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
        let spans: Vec<_> = (0..batch.ncols()).map(|j| batch.col_span(j, chunk)).collect();
        let nnz = spans.iter().map(Range::len).sum();
        let limit = u32::MAX as usize;
        narrow(nnz, "stored words", limit)?;
        Ok(ChunkSpans {
            spans,
            nnz,
            word_rows: narrow(chunk.len(), "word rows", limit)?,
            ncols: narrow(batch.ncols(), "columns", limit)?,
        })
    }
}

impl WireBlock {
    /// `batch[chunk, :]` column-major: the left operand of a SUMMA step.
    fn cut_csc(batch: &BitMatrix, chunk: Range<usize>) -> SparseResult<WireBlock> {
        let ChunkSpans { spans, nnz, word_rows, ncols } = ChunkSpans::of(batch, &chunk)?;
        let csc = batch.as_csc();
        let mut indptr = Vec::with_capacity(spans.len() + 1);
        indptr.push(0u32);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        for span in spans {
            indices.extend(csc.indices()[span.clone()].iter().map(|&w| (w - chunk.start) as u32));
            data.extend_from_slice(&csc.data()[span]);
            indptr.push(indices.len() as u32);
        }
        Ok(WireBlock { word_rows, ncols, indptr, indices, data })
    }

    /// `batch[chunk, :]` word-row-major — the right operand of a SUMMA
    /// step, transposed here so that no receiver has to — adding the
    /// chunk's set bits of column `j` to `card[j]`.
    fn cut_csr(
        batch: &BitMatrix,
        chunk: Range<usize>,
        card: &mut [u64],
    ) -> SparseResult<WireBlock> {
        debug_assert_eq!(card.len(), batch.ncols(), "one counter per column");
        let ChunkSpans { spans, nnz, word_rows, ncols } = ChunkSpans::of(batch, &chunk)?;
        let csc = batch.as_csc();
        // Counting transpose: words per row, prefix sum, scatter while
        // walking the columns in order (so every row lists them ascending).
        let mut indptr = vec![0u32; chunk.len() + 1];
        for span in &spans {
            for &w in &csc.indices()[span.clone()] {
                indptr[w - chunk.start + 1] += 1;
            }
        }
        for r in 0..chunk.len() {
            indptr[r + 1] += indptr[r];
        }
        let mut next = indptr[..chunk.len()].to_vec();
        let mut indices = vec![0u32; nnz];
        let mut data = vec![0u64; nnz];
        for ((j, span), count) in spans.into_iter().enumerate().zip(card) {
            for (&w, &word) in csc.indices()[span.clone()].iter().zip(&csc.data()[span]) {
                let slot = &mut next[w - chunk.start];
                indices[*slot as usize] = j as u32;
                data[*slot as usize] = word;
                *slot += 1;
                *count += u64::from(word.count_ones());
            }
        }
        Ok(WireBlock { word_rows, ncols, indptr, indices, data })
    }

    /// Decode a column-major block, validating it as a CSC matrix.
    fn into_csc(self) -> SparseResult<CscMatrix<u64>> {
        CscMatrix::from_raw_parts(
            self.word_rows as usize,
            self.ncols as usize,
            widen(&self.indptr),
            widen(&self.indices),
            self.data,
        )
    }

    /// Decode a word-row-major block, validating it as a CSR matrix.
    fn into_csr(self) -> SparseResult<CsrMatrix<u64>> {
        CsrMatrix::from_raw_parts(
            self.word_rows as usize,
            self.ncols as usize,
            widen(&self.indptr),
            widen(&self.indices),
            self.data,
        )
    }

    /// Whether this block is, element for element, the one the
    /// `nrows × ncols` matrix with these arrays was decoded from.
    fn same_parts(
        &self,
        dims: (usize, usize),
        indptr: &[usize],
        indices: &[usize],
        data: &[u64],
    ) -> bool {
        (self.word_rows as usize, self.ncols as usize) == dims
            && same_indices(&self.indptr, indptr)
            && same_indices(&self.indices, indices)
            && self.data == data
    }

    /// Whether [`Self::into_csc`] would give `held` again.
    fn is_csc(&self, held: &CscMatrix<u64>) -> bool {
        let dims = (held.nrows(), held.ncols());
        self.same_parts(dims, held.indptr(), held.indices(), held.data())
    }

    /// Whether [`Self::into_csr`] would give `held` again.
    fn is_csr(&self, held: &CsrMatrix<u64>) -> bool {
        let dims = (held.nrows(), held.ncols());
        self.same_parts(dims, held.indptr(), held.indices(), held.data())
    }
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

/// Per-step cache of decoded SUMMA operand blocks.
///
/// Keyed on the zero-row filter of the batch being accumulated: entries
/// survive from one batch to the next only while the filter key matches,
/// and a step's decode is reused only when the received block equals the
/// decoded one held, element for element (a compare against re-running
/// the widening and the `from_raw_parts` validation).
#[derive(Default)]
struct BlockCache {
    key: Option<u64>,
    left: Vec<Option<CscMatrix<u64>>>,
    right: Vec<Option<CsrMatrix<u64>>>,
    hits: u64,
    misses: u64,
}

impl BlockCache {
    fn begin_batch(&mut self, key: Option<u64>, steps: usize) {
        if key.is_none() || self.key != key {
            self.left.clear();
            self.right.clear();
        }
        self.key = key;
        self.left.resize_with(steps, || None);
        self.right.resize_with(steps, || None);
    }

    /// Decoded views of step `t`'s operands, reusing cached decodes when
    /// the wire content is unchanged.
    fn blocks(
        &mut self,
        t: usize,
        left_wire: WireBlock,
        right_wire: WireBlock,
    ) -> SparseResult<(&CscMatrix<u64>, &CsrMatrix<u64>)> {
        if self.left[t].as_ref().is_some_and(|held| left_wire.is_csc(held)) {
            self.hits += 1;
        } else {
            self.left[t] = Some(left_wire.into_csc()?);
            self.misses += 1;
        }
        if self.right[t].as_ref().is_some_and(|held| right_wire.is_csr(held)) {
            self.hits += 1;
        } else {
            self.right[t] = Some(right_wire.into_csr()?);
            self.misses += 1;
        }
        let left = self.left[t].as_ref().expect("left slot populated above");
        let right = self.right[t].as_ref().expect("right slot populated above");
        Ok((left, right))
    }
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
    cache: BlockCache,
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
            cache: BlockCache::default(),
        })
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

    /// Decoded-block cache hits across all batches so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// Decoded-block cache misses across all batches so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
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
    /// [`BitMatrix::from_batch_slices`]) contracts to the same result.
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
    /// chunks [`Self::owned_chunks`] lists: words elsewhere may be absent.
    /// Runs the SUMMA sweep of this rank's layer, accumulating into `acc`
    /// and adding the column popcounts of the chunks this rank owns into
    /// `card`.
    ///
    /// `filter_key` identifies the zero-row filter the batch was prepared
    /// under (e.g. [`crate::dist::filter::RowFilter::fingerprint`]);
    /// consecutive batches with the same key reuse cached block decodes
    /// for every step whose received bytes are unchanged. Pass `None` to
    /// disable caching.
    pub fn accumulate_batch_keyed(
        &mut self,
        left: &BitMatrix,
        right: &BitMatrix,
        filter_key: Option<u64>,
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
        self.cache.begin_batch(filter_key, self.steps);
        for t in 0..self.steps {
            let chunk = self.step_chunk(word_rows, t);
            // Right operand A[chunk, C_j].
            let right_owner = self.right_owner(t);
            // That rank is the unique holder of (chunk, C_j): the
            // popcounts of its cut are this chunk's cardinality
            // contribution.
            let right_seed = (i == right_owner)
                .then(|| WireBlock::cut_csr(right, chunk.clone(), &mut card[cols.clone()]))
                .transpose()?;
            let right_wire = self.col_comm.bcast(right_owner, right_seed)?;
            // Left operand A[chunk, R_i].
            let left_owner = self.left_owner(t);
            let left_seed =
                (j == left_owner).then(|| WireBlock::cut_csc(left, chunk)).transpose()?;
            let left_wire = self.row_comm.bcast(left_owner, left_seed)?;
            let (left_csc, right_csr) = self.cache.blocks(t, left_wire, right_wire)?;
            let ops = atb_block_dense::<PopcountAnd>(left_csc, right_csr, acc)?;
            self.grid_comm.add_flops(ops);
        }
        Ok(())
    }

    /// Reduce the layer partials: after the last batch, fiber-allreduce
    /// the accumulators across the `c` layers and allreduce the
    /// cardinalities so every rank holds the global per-sample counts.
    pub fn finalize(&self, acc: &mut DenseMatrix<u64>, card: &mut [u64]) -> SparseResult<()> {
        if self.c > 1 {
            let summed = self.fiber_comm.allreduce_sum(acc.as_slice())?;
            acc.as_mut_slice().copy_from_slice(&summed);
        }
        let full = self.grid_comm.allreduce_sum(&*card)?;
        card.copy_from_slice(&full);
        Ok(())
    }

    /// Gather the distributed output blocks of layer 0 onto world rank 0
    /// and assemble the full `n × n` matrix there. Collective over the
    /// world; returns `Some(B)` on rank 0 and `None` elsewhere.
    pub fn gather_full(
        &self,
        world: &Communicator,
        acc: &DenseMatrix<u64>,
    ) -> SparseResult<Option<DenseMatrix<u64>>> {
        let payload: Vec<u64> =
            if self.coords[2] == 0 { acc.as_slice().to_vec() } else { Vec::new() };
        let gathered = world.gatherv(0, &payload)?;
        let Some(blocks) = gathered else {
            return Ok(None);
        };
        let mut full = DenseMatrix::<u64>::zeros(self.n, self.n);
        for (rank, data) in blocks.into_iter().enumerate() {
            let [i, j, k] = self.grid.coords_of(rank)?;
            if k != 0 {
                continue;
            }
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
        for (p, c) in
            [(1, 1), (2, 1), (4, 1), (5, 1), (6, 1), (6, 2), (8, 1), (8, 2), (9, 1), (12, 2)]
        {
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
            for (p, c) in
                [(1, 1), (2, 1), (4, 1), (5, 1), (6, 1), (6, 2), (8, 1), (8, 2), (9, 1), (12, 2)]
            {
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
    fn repeated_batches_with_same_key_hit_the_decode_cache() {
        let columns = columns();
        let n = columns.len();
        let out = Runtime::new(4)
            .run(|ctx| {
                let mut ata = DistAta::new(ctx.world(), n, 1).unwrap();
                let mut acc = ata.new_accumulator();
                let mut card = ata.new_cardinalities();
                let (left, right) = pack_blocks(&ata, 200, &columns);
                // Same data, same filter key: the second pass must reuse
                // every decoded block.
                ata.accumulate_batch_keyed(&left, &right, Some(42), &mut acc, &mut card).unwrap();
                let after_first = (ata.cache_hits(), ata.cache_misses());
                ata.accumulate_batch_keyed(&left, &right, Some(42), &mut acc, &mut card).unwrap();
                let after_second = (ata.cache_hits(), ata.cache_misses());
                // A different key must flush the cache.
                ata.accumulate_batch_keyed(&left, &right, Some(7), &mut acc, &mut card).unwrap();
                let after_third = (ata.cache_hits(), ata.cache_misses());
                ata.finalize(&mut acc, &mut card).unwrap();
                let full = ata.gather_full(ctx.world(), &acc).unwrap();
                (after_first, after_second, after_third, full, card)
            })
            .unwrap();
        let columns_ref = reference(200, &columns);
        let mut tripled = columns_ref.clone();
        tripled.as_mut_slice().iter_mut().for_each(|v| *v *= 3);
        for (rank, (first, second, third, full, card)) in out.results.iter().enumerate() {
            assert_eq!(first.0, 0, "rank {rank}: first pass cannot hit");
            assert!(first.1 > 0, "rank {rank}: first pass must decode");
            assert_eq!(
                second.0 - first.0,
                first.1,
                "rank {rank}: second pass must hit once per first-pass decode"
            );
            assert_eq!(second.1, first.1, "rank {rank}: second pass must not decode");
            assert!(third.1 > second.1, "rank {rank}: new key must re-decode");
            if rank == 0 {
                assert_eq!(full.as_ref().unwrap(), &tripled, "three identical batches sum");
            }
            let expected: Vec<u64> = columns.iter().map(|col| 3 * col.len() as u64).collect();
            assert_eq!(card, &expected);
        }
    }

    #[test]
    fn unkeyed_batches_never_hit_the_cache() {
        let columns = columns();
        let n = columns.len();
        let out = Runtime::new(4)
            .run(|ctx| {
                let mut ata = DistAta::new(ctx.world(), n, 1).unwrap();
                let mut acc = ata.new_accumulator();
                let mut card = ata.new_cardinalities();
                let (left, right) = pack_blocks(&ata, 200, &columns);
                ata.accumulate_batch_keyed(&left, &right, None, &mut acc, &mut card).unwrap();
                ata.accumulate_batch_keyed(&left, &right, None, &mut acc, &mut card).unwrap();
                ata.cache_hits()
            })
            .unwrap();
        assert!(out.results.iter().all(|&h| h == 0));
    }

    #[test]
    fn cut_blocks_decode_to_the_selected_chunk_in_both_layouts() {
        let mut rng = Rng(24);
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

                        let left = WireBlock::cut_csc(&batch, chunk.clone()).unwrap();
                        assert_eq!(left.indptr.len(), ncols + 1, "{ctx}");
                        let nnz = selected.nnz_words();
                        assert_eq!(left.nbytes(), 16 + 4 * (ncols + 1 + nnz) + 8 * nnz, "{ctx}");
                        assert!(left.is_csc(selected.as_csc()), "{ctx}");
                        assert_eq!(&left.into_csc().unwrap(), selected.as_csc(), "{ctx}");

                        let mut card = vec![7u64; ncols];
                        let right = WireBlock::cut_csr(&batch, chunk.clone(), &mut card).unwrap();
                        let counted: Vec<u64> = card.iter().map(|c| c - 7).collect();
                        assert_eq!(counted, selected.col_popcounts(), "{ctx}");
                        assert_eq!(right.indptr.len(), chunk.len() + 1, "{ctx}");
                        assert_eq!(
                            right.nbytes(),
                            16 + 4 * (chunk.len() + 1 + nnz) + 8 * nnz,
                            "{ctx}"
                        );
                        assert!(right.is_csr(&selected.to_csr()), "{ctx}");
                        assert_eq!(right.into_csr().unwrap(), selected.to_csr(), "{ctx}");
                    }
                }
            }
        }
        let batch = BitMatrix::from_columns(130, &[vec![0, 64, 129]]).unwrap();
        assert!(matches!(
            WireBlock::cut_csc(&batch, 2..4),
            Err(SparseError::IndexOutOfBounds { row: 4, nrows: 3, .. })
        ));
    }

    #[test]
    fn a_block_that_differs_in_one_element_is_not_the_held_one() {
        let batch = BitMatrix::from_columns(130, &[vec![0, 64, 129], vec![1], vec![]]).unwrap();
        let wire = WireBlock::cut_csc(&batch, 0..3).unwrap();
        let held = wire.clone().into_csc().unwrap();
        assert!(wire.is_csc(&held));
        let mut word = wire.clone();
        word.data[1] ^= 1;
        let mut index = wire.clone();
        index.indices[1] = 2;
        let mut shape = wire.clone();
        shape.word_rows = 4;
        for other in [word, index, shape] {
            assert!(!other.is_csc(&held), "{other:?}");
        }
    }

    #[test]
    fn corrupted_blocks_fail_typed_at_decode() {
        let batch = BitMatrix::from_columns(130, &[vec![0, 64, 129], vec![1], vec![]]).unwrap();
        let left = WireBlock::cut_csc(&batch, 0..3).unwrap();
        let right = WireBlock::cut_csr(&batch, 0..3, &mut [0; 3]).unwrap();
        let decode = |left_form: bool, wire: WireBlock| {
            if left_form {
                wire.into_csc().err()
            } else {
                wire.into_csr().err()
            }
        };
        for (left_form, wire) in [(true, left), (false, right)] {
            assert!(decode(left_form, wire.clone()).is_none());
            // An index at the minor dimension (3 word rows / 3 columns).
            let mut bad = wire.clone();
            bad.indices[0] = 3;
            assert!(
                matches!(decode(left_form, bad), Some(SparseError::IndexOutOfBounds { .. })),
                "left form: {left_form}"
            );
            let mut bad = wire.clone();
            bad.indptr.swap(1, 2);
            assert!(matches!(decode(left_form, bad), Some(SparseError::ShapeMismatch { .. })));
            let mut bad = wire.clone();
            bad.data.pop();
            assert!(matches!(decode(left_form, bad), Some(SparseError::ShapeMismatch { .. })));
        }
    }

    #[test]
    fn counts_past_the_wire_limit_are_refused_typed() {
        assert_eq!(narrow(0, "columns", 10).unwrap(), 0);
        assert_eq!(narrow(10, "columns", 10).unwrap(), 10);
        assert_eq!(narrow(u32::MAX as usize, "word rows", u32::MAX as usize).unwrap(), u32::MAX);
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
