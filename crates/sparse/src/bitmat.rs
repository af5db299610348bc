//! Bit-packed ("masked") matrices.
//!
//! After zero-row filtering, SimilarityAtScale compresses each batch by
//! encoding segments of `b` consecutive rows of every column into a
//! `b`-bit word (Section III-B). This shrinks the number of stored rows —
//! and therefore the per-row metadata of the CSR/CSC representation — by a
//! factor of `b`, and lets the matrix product use a hardware `popcount`
//! over `AND`-ed words (Eq. 7). A [`BitMatrix`] is a CSC matrix of `u64`
//! words: `word_rows = ⌈rows / b⌉` rows, one column per data sample.

use std::ops::Range;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dist::filter::RowFilter;
use crate::error::{SparseError, SparseResult};

/// Number of rows packed into one machine word.
pub const WORD_BITS: usize = 64;

/// Pack row indices into a dense `⌈nrows / 64⌉`-word bitmap: bit `r` is
/// set iff `r` appears in `rows`. Indices `≥ nrows` are ignored (the same
/// clipping semantics as [`crate::dist::filter::RowFilter::from_local`]).
///
/// Large inputs are packed in parallel: the index list is split into
/// chunks, each chunk builds a partial bitmap, and the partials are
/// OR-merged — the shared-memory analogue of the paper's accumulate-write
/// filter construction over a `(max, ×)` monoid. A partial costs a pass
/// over the whole bitmap to zero and another to merge, so the list is
/// forked only when every chunk sets at least as many rows as the bitmap
/// has words.
pub fn pack_row_bitmap(nrows: usize, rows: &[usize]) -> Vec<u64> {
    let mut words = vec![0u64; nrows.div_ceil(WORD_BITS)];
    pack_row_bitmap_into(&mut words, nrows, rows);
    words
}

/// [`pack_row_bitmap`] into `words`, which must be zeroed and hold exactly
/// `⌈nrows / 64⌉` words.
pub(crate) fn pack_row_bitmap_into(words: &mut [u64], nrows: usize, rows: &[usize]) {
    let nwords = words.len();
    let Some(chunk_len) = fork_chunk_len(nwords, rows.len()) else {
        scatter_rows(words, nrows, rows);
        return;
    };
    let partials: Vec<Vec<u64>> = rows
        .par_chunks(chunk_len)
        .map(|chunk| {
            let mut partial = vec![0u64; nwords];
            scatter_rows(&mut partial, nrows, chunk);
            partial
        })
        .collect();
    for partial in partials {
        for (w, p) in words.iter_mut().zip(partial) {
            *w |= p;
        }
    }
}

/// Set bit `r` of `words` for every `r < nrows` of `rows`.
fn scatter_rows(words: &mut [u64], nrows: usize, rows: &[usize]) {
    for &r in rows {
        if r < nrows {
            words[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
    }
}

/// The chunk length [`pack_row_bitmap`] forks `len` row indices into, or
/// `None` to pack them inline. A chunk is worth a thread from
/// [`MIN_FORK_CHUNK`] indices up, and worth its `nwords`-word partial
/// bitmap only if it sets at least that many rows. Sizes are looked at
/// first: a list too short for two such chunks is answered without asking
/// the OS for the core count.
fn fork_chunk_len(nwords: usize, len: usize) -> Option<usize> {
    let max_chunks = len / MIN_FORK_CHUNK.max(nwords);
    if max_chunks < 2 {
        return None;
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    (threads >= 2).then(|| len.div_ceil(threads.min(max_chunks)))
}

const MIN_FORK_CHUNK: usize = 1 << 13;

/// The set bits of a packed bitmap as ascending row indices.
pub fn bitmap_rows(words: &[u64]) -> Vec<usize> {
    let mut out = Vec::with_capacity(bitmap_count_ones(words) as usize);
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            out.push(wi * WORD_BITS + bit);
            w &= w - 1;
        }
    }
    out
}

/// Make the empty `v` hold `len` zeros: in place when its capacity
/// allows, else in a fresh zeroed allocation, whose pages the packer then
/// touches only as far as it writes.
fn zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        *v = vec![T::default(); len];
    } else {
        v.resize(len, T::default());
    }
}

/// Number of set bits in a packed bitmap.
pub fn bitmap_count_ones(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// The error of the first entry of column `j` that is out of bounds or
/// not above its predecessor, in entry order (the column failed
/// [`BitMatrix::pack`]'s validating pass).
fn first_column_error(
    j: usize,
    rows: impl IntoIterator<Item = usize>,
    nrows: usize,
    ncols: usize,
) -> SparseError {
    let mut last_row: Option<usize> = None;
    for r in rows {
        if r >= nrows {
            return SparseError::IndexOutOfBounds { row: r, col: j, nrows, ncols };
        }
        if let Some(prev) = last_row.filter(|&prev| r <= prev) {
            return SparseError::ShapeMismatch {
                context: format!(
                    "column {j} row indices must be strictly increasing ({prev} then {r})"
                ),
            };
        }
        last_row = Some(r);
    }
    unreachable!("column {j} passed validation")
}

/// A boolean matrix with rows packed into 64-bit words, stored per column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitMatrix {
    /// Packed words: `words.nrows() == word_rows`, one column per sample.
    words: CscMatrix<u64>,
    /// Number of boolean rows before packing.
    orig_rows: usize,
}

/// The empty `0 × 0` matrix, e.g. for
/// [`BitMatrix::refill_from_batch_slices`] to fill.
impl Default for BitMatrix {
    fn default() -> Self {
        BitMatrix { words: CscMatrix::empty(0, 0), orig_rows: 0 }
    }
}

impl BitMatrix {
    /// Pack a boolean matrix given as "sorted row indices present in each
    /// column" (the natural output of the per-sample k-mer row lists).
    ///
    /// `nrows` is the number of boolean rows (after zero-row filtering);
    /// `columns[j]` lists the rows set in column `j`, in strictly
    /// increasing order.
    pub fn from_columns(nrows: usize, columns: &[Vec<usize>]) -> SparseResult<Self> {
        let all = 0..nrows.div_ceil(WORD_BITS);
        BitMatrix::packed(|m| m.pack(nrows, columns, |r| r, None, &[all]))
    }

    /// The matrix `pack` writes into an empty one.
    fn packed(pack: impl FnOnce(&mut BitMatrix) -> SparseResult<()>) -> SparseResult<Self> {
        let mut matrix = BitMatrix::default();
        pack(&mut matrix)?;
        Ok(matrix)
    }

    /// Filter, renumber and pack a batch in one pass (Eqs. 5–7): row `r`
    /// of `columns` becomes row `filter.compacted_index(r)` of a matrix
    /// with `filter.num_nonzero_rows()` rows, and rows the filter removed
    /// are dropped — the same matrix as [`BitMatrix::from_columns`] over
    /// the renumbered lists, without building them.
    ///
    /// `columns` is checked as `from_columns` checks it, against the
    /// filter's source extent `filter.batch_rows()`. A filter that keeps
    /// every row packs the columns as given.
    pub fn from_filtered_columns(columns: &[Vec<usize>], filter: &RowFilter) -> SparseResult<Self> {
        let all = 0..filter.num_nonzero_rows().div_ceil(WORD_BITS);
        BitMatrix::packed(|m| m.pack(filter.batch_rows(), columns, |r| r, Some(filter), &[all]))
    }

    /// Filter, renumber and pack the word rows in `keep` only, straight
    /// from sorted attribute values, into this matrix: value `v` of a
    /// column is source row `v − rows.start` of the batch `rows`. Under
    /// `filter` (whose `batch_rows()` must be the batch's length) row `r`
    /// becomes row `filter.compacted_index(r)`; without one every row is
    /// kept as is.
    ///
    /// The matrix has the full extent — `filter.num_nonzero_rows()` (or
    /// `rows`' length) boolean rows — but stores words only in the word
    /// rows of `keep`: there exactly the words
    /// [`BitMatrix::from_filtered_columns`] stores, elsewhere none. `keep`
    /// lists word-row ranges in ascending order, disjoint (empty ranges
    /// are ignored). Each column is checked whole, as `from_columns`
    /// checks it, so a bad column is refused with the same error whatever
    /// `keep` is.
    ///
    /// The matrix's arrays are emptied and refilled, keeping their
    /// capacity up to twice what the batch stores: a driver that packs
    /// batch after batch of one shape into the same matrix allocates for
    /// the first only. On an error the matrix is left empty.
    pub fn refill_from_batch_slices(
        &mut self,
        rows: Range<u64>,
        columns: &[&[u64]],
        filter: Option<&RowFilter>,
        keep: &[Range<usize>],
    ) -> SparseResult<()> {
        let source_rows = rows.end.saturating_sub(rows.start) as usize;
        if let Some(f) = filter.filter(|f| f.batch_rows() != source_rows) {
            *self = BitMatrix::default();
            return Err(SparseError::ShapeMismatch {
                context: format!(
                    "a filter over {} rows for a batch of {source_rows} rows",
                    f.batch_rows()
                ),
            });
        }
        let lo = rows.start;
        self.pack(source_rows, columns, |v: u64| v.wrapping_sub(lo) as usize, filter, keep)
    }

    /// The packer behind every constructor. Every column must ascend
    /// strictly below `source_rows` once `row_of` (strictly monotone) maps
    /// its entries to source rows. `filter` renumbers rows and drops the
    /// ones it removed; without one, or under one that keeps every row,
    /// the rows are packed as they are. Only the output word rows in
    /// `keep` are packed: each range is mapped to the source rows that
    /// renumber into it ([`RowFilter::select`]), and each column is sliced
    /// there by binary search. The result replaces this matrix, whose
    /// arrays it reuses; on an error the matrix is left empty.
    #[inline(always)]
    fn pack<T: Copy>(
        &mut self,
        source_rows: usize,
        columns: &[impl AsRef<[T]>],
        row_of: impl Fn(T) -> usize + Copy,
        filter: Option<&RowFilter>,
        keep: &[Range<usize>],
    ) -> SparseResult<()> {
        match filter {
            Some(f) if f.num_nonzero_rows() < source_rows => self.pack_renumbered(
                source_rows,
                columns,
                row_of,
                (
                    f.num_nonzero_rows(),
                    |r| f.compacted_index(r),
                    |k| f.select(k).unwrap_or(source_rows),
                ),
                keep,
            ),
            _ => self.pack_renumbered(
                source_rows,
                columns,
                row_of,
                (source_rows, Some, |k: usize| k.min(source_rows)),
                keep,
            ),
        }
    }

    /// [`BitMatrix::pack`] under one renumbering, given as
    /// `(nrows, renumber, source_start)`: `renumber` maps a source row to
    /// its row of the `nrows`-row output, or `None` to drop it, and must be
    /// monotone so the packed words ascend without a second check;
    /// `source_start(k)` is the first source row that renumbers to `k` or
    /// beyond (`source_rows` for `k ≥ nrows`).
    #[inline(always)]
    fn pack_renumbered<T: Copy>(
        &mut self,
        source_rows: usize,
        columns: &[impl AsRef<[T]>],
        row_of: impl Fn(T) -> usize + Copy,
        (nrows, mut renumber, source_start): (
            usize,
            impl FnMut(usize) -> Option<usize>,
            impl Fn(usize) -> usize,
        ),
        keep: &[Range<usize>],
    ) -> SparseResult<()> {
        let word_rows = nrows.div_ceil(WORD_BITS);
        let ncols = columns.len();
        self.orig_rows = 0;
        self.words.refill(word_rows, ncols, |mut indptr, mut indices, mut data| {
            let keep: Vec<&Range<usize>> = keep.iter().filter(|w| !w.is_empty()).collect();
            if let Some((prev, next)) =
                keep.windows(2).map(|w| (w[0], w[1])).find(|(a, b)| a.end > b.start)
            {
                return Err(SparseError::ShapeMismatch {
                    context: format!("word-row ranges {prev:?} and {next:?} overlap or descend"),
                });
            }
            if let Some(last) = keep.last().filter(|w| w.end > word_rows) {
                return Err(SparseError::IndexOutOfBounds {
                    row: last.end,
                    col: 0,
                    nrows: word_rows,
                    ncols,
                });
            }
            // The source rows that renumber into each kept range, then
            // where they sit in each column: two binary searches per range.
            let bounds: Vec<(usize, usize)> = keep
                .iter()
                .map(|w| (source_start(w.start * WORD_BITS), source_start(w.end * WORD_BITS)))
                .collect();
            let mut spans = Vec::with_capacity(ncols * bounds.len());
            for col in columns {
                let rows = col.as_ref();
                let mut from = 0;
                for &(lo, hi) in &bounds {
                    let start = from + rows[from..].partition_point(|&v| row_of(v) < lo);
                    from = start + rows[start..].partition_point(|&v| row_of(v) < hi);
                    spans.push(start..from);
                }
            }
            // A column stores at most one word per kept entry and per kept
            // word row.
            let entries: usize = spans.iter().map(Range::len).sum();
            let kept_word_rows: usize = keep.iter().map(|w| w.len()).sum();
            let capacity = entries.min(ncols.saturating_mul(kept_word_rows));
            indptr.reserve_exact(ncols + 1);
            indptr.push(0usize);
            zeroed(&mut indices, capacity);
            zeroed(&mut data, capacity);
            let (word_of, words) = (indices.as_mut_slice(), data.as_mut_slice());
            // Words stored so far; the last of them is the open one.
            let mut stored = 0usize;
            for (j, col) in columns.iter().enumerate() {
                let rows = col.as_ref();
                // Validate the whole column, kept or not, without branching
                // on the entries: a strictly ascending column is in bounds
                // iff its last row is.
                let ascending =
                    rows.windows(2).fold(true, |ok, w| ok & (row_of(w[0]) < row_of(w[1])));
                if !ascending || rows.last().is_some_and(|&v| row_of(v) >= source_rows) {
                    let rows = rows.iter().map(|&v| row_of(v));
                    return Err(first_column_error(j, rows, source_rows, ncols));
                }
                // Pack without branching on word boundaries either (a k-mer
                // batch crosses one every few entries, at random): every
                // entry rewrites the open word, and a new word index opens
                // the next.
                let (mut word, mut mask) = (usize::MAX, 0u64);
                for span in &spans[j * bounds.len()..(j + 1) * bounds.len()] {
                    for r in rows[span.clone()].iter().filter_map(|&v| renumber(row_of(v))) {
                        let opens = usize::from(r / WORD_BITS != word);
                        stored += opens;
                        mask &= (opens as u64).wrapping_sub(1);
                        mask |= 1u64 << (r % WORD_BITS);
                        word = r / WORD_BITS;
                        word_of[stored - 1] = word;
                        words[stored - 1] = mask;
                    }
                }
                indptr.push(stored);
            }
            indices.truncate(stored);
            data.truncate(stored);
            Ok((indptr, indices, data))
        })?;
        self.orig_rows = nrows;
        Ok(())
    }

    /// Number of boolean rows before packing.
    pub fn orig_rows(&self) -> usize {
        self.orig_rows
    }

    /// Number of packed word rows (`⌈orig_rows / 64⌉`).
    pub fn word_rows(&self) -> usize {
        self.words.nrows()
    }

    /// Number of columns (data samples).
    pub fn ncols(&self) -> usize {
        self.words.ncols()
    }

    /// Number of stored words.
    pub fn nnz_words(&self) -> usize {
        self.words.nnz()
    }

    /// Total number of set bits (the number of boolean nonzeros packed).
    pub fn count_ones(&self) -> u64 {
        self.words.data().iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Set bits per column — exactly the per-sample cardinalities
    /// `ĉ_i = Σ_k a_ki` of the packed batch.
    pub fn col_popcounts(&self) -> Vec<u64> {
        (0..self.ncols())
            .map(|j| self.words.col(j).map(|(_, w)| w.count_ones() as u64).sum())
            .collect()
    }

    /// The packed words as a CSC matrix (columns are samples).
    pub fn as_csc(&self) -> &CscMatrix<u64> {
        &self.words
    }

    /// The packed words converted to CSR (rows are word rows).
    pub fn to_csr(&self) -> CsrMatrix<u64> {
        self.words.to_csr()
    }

    /// Membership test for boolean entry `(row, col)`.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        if row >= self.orig_rows || col >= self.ncols() {
            return false;
        }
        let w = row / WORD_BITS;
        let bit = 1u64 << (row % WORD_BITS);
        self.words.col(col).any(|(r, mask)| r == w && mask & bit != 0)
    }

    /// Restrict to the columns listed in `keep` (in order).
    pub fn select_cols(&self, keep: &[usize]) -> SparseResult<BitMatrix> {
        Ok(BitMatrix { words: self.words.select_cols(keep)?, orig_rows: self.orig_rows })
    }

    /// Restrict to a contiguous range of word rows, re-basing word indices
    /// to start at zero. Used to split a packed batch into the row chunks
    /// of the 2.5D distribution.
    pub fn select_word_rows(&self, range: Range<usize>) -> SparseResult<BitMatrix> {
        if range.end > self.word_rows() {
            return Err(SparseError::IndexOutOfBounds {
                row: range.end,
                col: 0,
                nrows: self.word_rows(),
                ncols: self.ncols(),
            });
        }
        let new_word_rows = range.end - range.start;
        let mut indptr = Vec::with_capacity(self.ncols() + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for j in 0..self.ncols() {
            let span = self.words.col_span(j, &range);
            indices.extend(self.words.indices()[span.clone()].iter().map(|w| w - range.start));
            data.extend_from_slice(&self.words.data()[span]);
            indptr.push(indices.len());
        }
        let words = CscMatrix::from_raw_parts(new_word_rows, self.ncols(), indptr, indices, data)?;
        let orig_rows =
            (new_word_rows * WORD_BITS).min(self.orig_rows.saturating_sub(range.start * WORD_BITS));
        Ok(BitMatrix { words, orig_rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rng;

    #[test]
    fn bitmap_round_trips_and_clips() {
        let rows = vec![0usize, 63, 64, 129, 500];
        let bm = pack_row_bitmap(130, &rows);
        assert_eq!(bm.len(), 3);
        assert_eq!(bitmap_rows(&bm), vec![0, 63, 64, 129]);
        assert_eq!(bitmap_count_ones(&bm), 4);
        // Duplicates and arbitrary order collapse into the same bitmap.
        let shuffled = pack_row_bitmap(130, &[129, 0, 64, 0, 63, 63]);
        assert_eq!(shuffled, bm);
        assert!(pack_row_bitmap(0, &rows).is_empty());
        assert_eq!(bitmap_rows(&pack_row_bitmap(64, &[])), Vec::<usize>::new());
    }

    #[test]
    fn bitmap_pack_matches_serial_reference_on_both_sides_of_the_fork_condition() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        // 40 000 indices: two chunks of 20 000 each out-set a 4 688-word
        // bitmap (forked wherever there are two cores) but not a
        // 46 875-word one, and 16 000 are too few for two chunks at all.
        for (nrows, listed, forks) in [
            (300_000usize, 40_000usize, true),
            (3_000_000, 40_000, false),
            (300_000, 16_000, false),
        ] {
            let rows: Vec<usize> = (0..listed).map(|i| (i * 131) % (nrows + 50)).collect();
            let nwords = nrows.div_ceil(WORD_BITS);
            let chunk_len = fork_chunk_len(nwords, rows.len());
            assert_eq!(chunk_len.is_some(), forks && threads >= 2, "{nrows} rows, {listed} listed");
            assert!(chunk_len.is_none_or(|len| len >= nwords && len < listed));
            let mut reference = vec![0u64; nwords];
            for &r in rows.iter().filter(|&&r| r < nrows) {
                reference[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
            }
            let bm = pack_row_bitmap(nrows, &rows);
            assert_eq!(bm, reference, "{nrows} rows, {listed} listed");
            let mut sorted: Vec<usize> = rows.iter().copied().filter(|&r| r < nrows).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(bitmap_rows(&bm), sorted);
        }
    }

    #[test]
    fn packs_rows_into_words() {
        // Column 0 has rows {0, 1, 64}; column 1 has rows {63, 64}.
        let bm = BitMatrix::from_columns(70, &[vec![0, 1, 64], vec![63, 64]]).unwrap();
        assert_eq!(bm.orig_rows(), 70);
        assert_eq!(bm.word_rows(), 2);
        assert_eq!(bm.ncols(), 2);
        assert_eq!(bm.nnz_words(), 4);
        assert_eq!(bm.count_ones(), 5);
        assert_eq!(bm.col_popcounts(), vec![3, 2]);
        assert!(bm.contains(0, 0));
        assert!(bm.contains(64, 0));
        assert!(!bm.contains(2, 0));
        assert!(bm.contains(63, 1));
        assert!(!bm.contains(65, 1));
        assert!(!bm.contains(200, 0));
    }

    #[test]
    fn rejects_out_of_bounds_and_unsorted_rows() {
        assert!(BitMatrix::from_columns(10, &[vec![10]]).is_err());
        assert!(BitMatrix::from_columns(10, &[vec![3, 3]]).is_err());
        assert!(BitMatrix::from_columns(10, &[vec![5, 2]]).is_err());
        // The error is the first offending entry's, in entry order.
        let err = |columns: &[Vec<usize>]| BitMatrix::from_columns(10, columns).unwrap_err();
        assert_eq!(
            err(&[vec![1], vec![2, 11, 12, 4]]),
            SparseError::IndexOutOfBounds { row: 11, col: 1, nrows: 10, ncols: 2 }
        );
        assert_eq!(
            err(&[vec![], vec![], vec![0, 5, 5, 10]]),
            SparseError::ShapeMismatch {
                context: "column 2 row indices must be strictly increasing (5 then 5)".into()
            }
        );
        assert_eq!(
            err(&[vec![7, 9, 8, 3, 12]]),
            SparseError::ShapeMismatch {
                context: "column 0 row indices must be strictly increasing (9 then 8)".into()
            }
        );
    }

    #[test]
    fn packed_words_equal_a_dense_bitmap_per_column() {
        let mut rng = Rng(30);
        // Sparse to full columns, one word row to many, and a ragged tail.
        for (nrows, ncols, percent) in
            [(1usize, 2usize, 50usize), (64, 3, 100), (700, 5, 2), (700, 5, 40)]
        {
            let columns = rng.columns(nrows, ncols, percent);
            let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
            for (j, rows) in columns.iter().enumerate() {
                let dense = pack_row_bitmap(nrows, rows);
                let stored: Vec<(usize, u64)> =
                    dense.into_iter().enumerate().filter(|&(_, w)| w != 0).collect();
                assert_eq!(bm.as_csc().col(j).collect::<Vec<_>>(), stored, "{nrows} rows, {j}");
            }
        }
    }

    #[test]
    fn filtered_columns_are_checked_against_the_source_extent() {
        // Rows 0..10 of which 2 and 7 survive: row 7 is in range for the
        // source but not for the two-row output, and row 12 is in neither.
        let filter = RowFilter::from_local(10, vec![2, 7]);
        let bm = BitMatrix::from_filtered_columns(&[vec![2, 7], vec![3, 7]], &filter).unwrap();
        assert_eq!(bm, BitMatrix::from_columns(2, &[vec![0, 1], vec![1]]).unwrap());
        let err = |columns: &[Vec<usize>]| {
            BitMatrix::from_filtered_columns(columns, &filter).unwrap_err()
        };
        assert_eq!(
            err(&[vec![2], vec![2, 12]]),
            SparseError::IndexOutOfBounds { row: 12, col: 1, nrows: 10, ncols: 2 }
        );
        assert_eq!(
            err(&[vec![7, 2]]),
            SparseError::ShapeMismatch {
                context: "column 0 row indices must be strictly increasing (7 then 2)".into()
            }
        );
    }

    /// `columns` as attribute values of the batch starting at `lo`.
    fn as_values(lo: u64, columns: &[Vec<usize>]) -> Vec<Vec<u64>> {
        columns.iter().map(|col| col.iter().map(|&r| lo + r as u64).collect()).collect()
    }

    /// Block `idx` of `0..total` split `parts` ways (the SUMMA chunking).
    fn chunk(total: usize, parts: usize, idx: usize) -> Range<usize> {
        idx * total / parts..(idx + 1) * total / parts
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // lists of one word-row range
    fn packing_kept_word_rows_stores_the_full_pack_there_and_nothing_elsewhere() {
        let mut rng = Rng(34);
        let lo = 1_000_000u64;
        // Refilled by every pack below in turn, larger and smaller ones.
        let mut refilled = BitMatrix::default();
        // A ragged last word, and one under the `T = 6` chunk count.
        for (nrows, percent) in [(1_000usize, 30usize), (1_000, 2), (300, 10)] {
            let columns = rng.columns(nrows, 5, percent);
            let values = as_values(lo, &columns);
            let slices: Vec<&[u64]> = values.iter().map(Vec::as_slice).collect();
            let mut survivors: Vec<usize> = columns.iter().flatten().copied().collect();
            survivors.sort_unstable();
            survivors.dedup();
            let identity = RowFilter::from_local(nrows, (0..nrows).collect());
            let filters = [
                None,
                Some(identity),
                // The batch's own filter, and a narrower one.
                Some(RowFilter::from_local(nrows, survivors.clone())),
                Some(RowFilter::from_local(nrows, survivors.iter().copied().step_by(3).collect())),
            ];
            for filter in &filters {
                let full = match filter {
                    Some(f) => BitMatrix::from_filtered_columns(&columns, f).unwrap(),
                    None => BitMatrix::from_columns(nrows, &columns).unwrap(),
                };
                let word_rows = full.word_rows();
                // p = 6 is the 2 × 3 grid, T = 6: right operands keep the
                // chunks of one residue mod 2, left ones of one residue
                // mod 3, and a diagonal-style union mixes both.
                let steps = |pick: &dyn Fn(usize) -> bool| -> Vec<Range<usize>> {
                    (0..6).filter(|&t| pick(t)).map(|t| chunk(word_rows, 6, t)).collect()
                };
                let keeps = [
                    vec![],
                    vec![0..word_rows],
                    steps(&|t| t % 2 == 0),
                    steps(&|t| t % 2 == 1),
                    steps(&|t| t % 3 == 1),
                    steps(&|t| t % 2 == 0 || t % 3 == 0),
                    vec![0..0, word_rows / 2..word_rows / 2, word_rows - 1..word_rows],
                ];
                for keep in &keeps {
                    let ctx = format!("{nrows} rows at {percent}%, {filter:?}, keep {keep:?}");
                    // Into an empty matrix, and into one refilled batch
                    // after batch.
                    let rows = lo..lo + nrows as u64;
                    let mut part = BitMatrix::default();
                    part.refill_from_batch_slices(rows.clone(), &slices, filter.as_ref(), keep)
                        .unwrap();
                    refilled
                        .refill_from_batch_slices(rows, &slices, filter.as_ref(), keep)
                        .unwrap();
                    assert_eq!(refilled, part, "{ctx}");
                    assert_eq!(
                        (part.orig_rows(), part.word_rows(), part.ncols()),
                        (full.orig_rows(), word_rows, full.ncols()),
                        "{ctx}"
                    );
                    let mut kept_words = 0;
                    for range in keep {
                        let expected = full.select_word_rows(range.clone()).unwrap();
                        assert_eq!(
                            part.select_word_rows(range.clone()).unwrap(),
                            expected,
                            "{ctx}"
                        );
                        kept_words += expected.nnz_words();
                    }
                    assert_eq!(part.nnz_words(), kept_words, "{ctx}: words outside `keep`");
                }
            }
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // lists of one word-row range
    fn a_bad_column_is_refused_alike_whatever_word_rows_are_kept() {
        // 300 rows are 5 words; every bad entry sits in word row 3 or 4.
        let lo = 64u64;
        let filter = RowFilter::from_local(300, (0..300).step_by(2).collect());
        for columns in [
            vec![vec![1, 2], vec![3, 200, 299, 300]],
            vec![vec![1, 2], vec![3, 250, 240]],
            vec![vec![5, 260, 260]],
            vec![vec![], vec![1, 900]],
        ] {
            let values = as_values(lo, &columns);
            let slices: Vec<&[u64]> = values.iter().map(Vec::as_slice).collect();
            let unfiltered = BitMatrix::from_columns(300, &columns).unwrap_err();
            let filtered = BitMatrix::from_filtered_columns(&columns, &filter).unwrap_err();
            assert_eq!(unfiltered, filtered, "{columns:?}");
            let word_rows = filter.num_nonzero_rows().div_ceil(WORD_BITS);
            for keep in [vec![], vec![0..1], vec![0..2, 2..3], vec![0..word_rows]] {
                for f in [None, Some(&filter)] {
                    // Refused alike, and the matrix is left empty.
                    let mut held = BitMatrix::from_columns(300, &[vec![7, 299]]).unwrap();
                    let rows = lo..lo + 300;
                    let refused = held.refill_from_batch_slices(rows, &slices, f, &keep);
                    let ctx = format!("{columns:?}, keep {keep:?}, filter {f:?}");
                    assert_eq!(refused, Err(unfiltered.clone()), "{ctx}");
                    assert_eq!(held, BitMatrix::default());
                }
            }
        }
        // Keep ranges must ascend, disjoint, inside the word rows; a filter
        // must cover the batch.
        let slices: [&[u64]; 1] = [&[64, 70]];
        let pack = |keep: &[Range<usize>], f: Option<&RowFilter>| {
            BitMatrix::default().refill_from_batch_slices(lo..lo + 300, &slices, f, keep)
        };
        assert!(matches!(pack(&[2..4, 1..2], None), Err(SparseError::ShapeMismatch { .. })));
        assert!(matches!(pack(&[0..2, 1..3], None), Err(SparseError::ShapeMismatch { .. })));
        assert!(matches!(
            pack(&[3..6], None),
            Err(SparseError::IndexOutOfBounds { row: 6, nrows: 5, .. })
        ));
        assert!(pack(&[3..3, 0..1, 5..5], None).is_ok());
        let other = RowFilter::from_local(299, vec![0, 6]);
        assert!(matches!(pack(&[], Some(&other)), Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn select_cols_and_word_rows() {
        let bm = BitMatrix::from_columns(200, &[vec![0, 100], vec![150], vec![10, 199]]).unwrap();
        let cols = bm.select_cols(&[2, 0]).unwrap();
        assert_eq!(cols.ncols(), 2);
        assert_eq!(cols.col_popcounts(), vec![2, 2]);

        // Word rows: 200 bits -> 4 words (0..64, 64..128, 128..192, 192..200).
        assert_eq!(bm.word_rows(), 4);
        let top = bm.select_word_rows(0..2).unwrap();
        assert_eq!(top.word_rows(), 2);
        assert_eq!(top.col_popcounts(), vec![2, 0, 1]);
        let bottom = bm.select_word_rows(2..4).unwrap();
        assert_eq!(bottom.col_popcounts(), vec![0, 1, 1]);
        assert!(bm.select_word_rows(3..9).is_err());
    }

    #[test]
    fn word_row_selection_equals_a_scan_of_every_stored_word() {
        let mut rng = Rng(24);
        for (nrows, ncols, percent) in
            [(0usize, 2usize, 50usize), (70, 3, 50), (700, 4, 2), (700, 4, 60)]
        {
            let bm = BitMatrix::from_columns(nrows, &rng.columns(nrows, ncols, percent)).unwrap();
            for start in 0..=bm.word_rows() {
                for end in start..=bm.word_rows() {
                    let chunk = bm.select_word_rows(start..end).unwrap();
                    assert_eq!(chunk.word_rows(), end - start);
                    for j in 0..ncols {
                        let scanned: Vec<(usize, u64)> = bm
                            .as_csc()
                            .col(j)
                            .filter(|(w, _)| (start..end).contains(w))
                            .map(|(w, mask)| (w - start, mask))
                            .collect();
                        assert_eq!(chunk.as_csc().col(j).collect::<Vec<_>>(), scanned);
                    }
                }
            }
        }
    }

    #[test]
    fn csr_view_has_word_rows() {
        let bm = BitMatrix::from_columns(128, &[vec![0], vec![0, 64], vec![127]]).unwrap();
        let csr = bm.to_csr();
        assert_eq!(csr.nrows(), 2);
        assert_eq!(csr.ncols(), 3);
        assert_eq!(csr.row(0).count(), 2);
        assert_eq!(csr.row(1).count(), 2);
    }
}
