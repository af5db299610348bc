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
    let nwords = nrows.div_ceil(WORD_BITS);
    let mut words = vec![0u64; nwords];
    let Some(chunk_len) = fork_chunk_len(nwords, rows.len()) else {
        scatter_rows(&mut words, nrows, rows);
        return words;
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
    words
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

/// Number of set bits in a packed bitmap.
pub fn bitmap_count_ones(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// The error of the first entry of column `j` that is out of bounds or
/// not above its predecessor, in entry order (the column failed
/// [`BitMatrix::pack`]'s validating pass).
fn first_column_error(j: usize, rows: &[usize], nrows: usize, ncols: usize) -> SparseError {
    let mut last_row: Option<usize> = None;
    for &r in rows {
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

impl BitMatrix {
    /// Pack a boolean matrix given as "sorted row indices present in each
    /// column" (the natural output of the per-sample k-mer row lists).
    ///
    /// `nrows` is the number of boolean rows (after zero-row filtering);
    /// `columns[j]` lists the rows set in column `j`, in strictly
    /// increasing order.
    pub fn from_columns(nrows: usize, columns: &[Vec<usize>]) -> SparseResult<Self> {
        BitMatrix::pack(nrows, nrows, columns, Some)
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
        let (source_rows, nrows) = (filter.batch_rows(), filter.num_nonzero_rows());
        if nrows == source_rows {
            return BitMatrix::pack(source_rows, nrows, columns, Some);
        }
        BitMatrix::pack(source_rows, nrows, columns, |r| filter.compacted_index(r))
    }

    /// The packer behind both constructors: every column must ascend
    /// strictly below `source_rows`; `renumber` maps a source row to its
    /// row of the `nrows`-row output, or `None` to drop it, and must be
    /// monotone so the packed words ascend without a second check.
    #[inline(always)]
    fn pack(
        source_rows: usize,
        nrows: usize,
        columns: &[Vec<usize>],
        mut renumber: impl FnMut(usize) -> Option<usize>,
    ) -> SparseResult<Self> {
        let word_rows = nrows.div_ceil(WORD_BITS);
        let ncols = columns.len();
        // A column stores at most one word per entry and per word row.
        let entries: usize = columns.iter().map(Vec::len).sum();
        let capacity = entries.min(ncols.saturating_mul(word_rows));
        let mut indptr = Vec::with_capacity(ncols + 1);
        indptr.push(0usize);
        let mut indices = vec![0usize; capacity];
        let mut data = vec![0u64; capacity];
        // Words stored so far; the last of them is the open one.
        let mut stored = 0usize;
        for (j, rows) in columns.iter().enumerate() {
            // Validate without branching on the entries: a strictly
            // ascending column is in bounds iff its last row is.
            let ascending = rows.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
            if !ascending || rows.last().is_some_and(|&r| r >= source_rows) {
                return Err(first_column_error(j, rows, source_rows, ncols));
            }
            // Pack without branching on word boundaries either (a k-mer
            // batch crosses one every few entries, at random): every entry
            // rewrites the open word, and a new word index opens the next.
            let (mut word, mut mask) = (usize::MAX, 0u64);
            for r in rows.iter().filter_map(|&r| renumber(r)) {
                let opens = usize::from(r / WORD_BITS != word);
                stored += opens;
                mask &= (opens as u64).wrapping_sub(1);
                mask |= 1u64 << (r % WORD_BITS);
                word = r / WORD_BITS;
                indices[stored - 1] = word;
                data[stored - 1] = mask;
            }
            indptr.push(stored);
        }
        indices.truncate(stored);
        data.truncate(stored);
        let words = CscMatrix::from_raw_parts(word_rows, ncols, indptr, indices, data)?;
        Ok(BitMatrix { words, orig_rows: nrows })
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

    /// Popcount of the AND of two columns — the scalar popcount-AND
    /// kernel of Eq. (7) applied to a single column pair, i.e. the
    /// intersection cardinality `b_ab = Σ_w popcount(â_wa & â_wb)`.
    ///
    /// Both sparse columns are merge-joined on their word indices, so the
    /// cost is `O(nnz_words(a) + nnz_words(b))`. Runs where both columns
    /// store the same four consecutive word indices — the common case for
    /// k-mer batches, whose filtered rows pack densely — skip the per-word
    /// comparison ladder and AND+popcount four words per iteration. The
    /// `gas-index` query engine uses this to re-rank LSH candidates
    /// exactly without forming the full `AᵀA` product.
    #[inline]
    pub fn and_popcount(&self, a: usize, b: usize) -> u64 {
        let indptr = self.words.indptr();
        let indices = self.words.indices();
        let data = self.words.data();
        let (ia, da) = (&indices[indptr[a]..indptr[a + 1]], &data[indptr[a]..indptr[a + 1]]);
        let (ib, db) = (&indices[indptr[b]..indptr[b + 1]], &data[indptr[b]..indptr[b + 1]]);
        let (mut i, mut j) = (0usize, 0usize);
        let mut count = 0u64;
        while i < ia.len() && j < ib.len() {
            if i + 4 <= ia.len() && j + 4 <= ib.len() && ia[i..i + 4] == ib[j..j + 4] {
                count += (da[i] & db[j]).count_ones() as u64
                    + (da[i + 1] & db[j + 1]).count_ones() as u64
                    + (da[i + 2] & db[j + 2]).count_ones() as u64
                    + (da[i + 3] & db[j + 3]).count_ones() as u64;
                i += 4;
                j += 4;
                continue;
            }
            match ia[i].cmp(&ib[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += (da[i] & db[j]).count_ones() as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// The straightforward one-word-at-a-time merge join — the reference
    /// the unrolled [`Self::and_popcount`] is pinned against in tests.
    #[cfg(test)]
    fn and_popcount_scalar(&self, a: usize, b: usize) -> u64 {
        let mut ca = self.words.col(a);
        let mut cb = self.words.col(b);
        let (mut na, mut nb) = (ca.next(), cb.next());
        let mut count = 0u64;
        while let (Some((wa, ma)), Some((wb, mb))) = (na, nb) {
            match wa.cmp(&wb) {
                std::cmp::Ordering::Less => na = ca.next(),
                std::cmp::Ordering::Greater => nb = cb.next(),
                std::cmp::Ordering::Equal => {
                    count += (ma & mb).count_ones() as u64;
                    na = ca.next();
                    nb = cb.next();
                }
            }
        }
        count
    }

    /// Ratio of stored words to stored boolean nonzeros: the paper notes
    /// masking "increases the storage necessary for each nonzero by no
    /// more than 2–3×" while cutting row metadata by `b`.
    pub fn words_per_nonzero(&self) -> f64 {
        let ones = self.count_ones();
        if ones == 0 {
            return 0.0;
        }
        self.nnz_words() as f64 / ones as f64
    }

    /// Restrict to the columns listed in `keep` (in order).
    pub fn select_cols(&self, keep: &[usize]) -> SparseResult<BitMatrix> {
        Ok(BitMatrix { words: self.words.select_cols(keep)?, orig_rows: self.orig_rows })
    }

    /// Where column `j`'s words of the word rows in `range` sit in the
    /// stored arrays of [`Self::as_csc`]. Word rows ascend within a
    /// column, so this is two binary searches, not a scan of the column.
    pub(crate) fn col_span(&self, j: usize, range: &Range<usize>) -> Range<usize> {
        let (lo, hi) = (self.words.indptr()[j], self.words.indptr()[j + 1]);
        let word_rows = &self.words.indices()[lo..hi];
        let start = word_rows.partition_point(|&w| w < range.start);
        let end = start + word_rows[start..].partition_point(|&w| w < range.end);
        lo + start..lo + end
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
            let span = self.col_span(j, &range);
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

    #[test]
    fn and_popcount_matches_set_intersection() {
        // Columns over 200 rows with known overlaps (including rows that
        // share words and rows in different words).
        let c0: Vec<usize> = vec![0, 1, 5, 63, 64, 100, 150, 199];
        let c1: Vec<usize> = vec![1, 5, 64, 99, 150];
        let c2: Vec<usize> = vec![2, 66, 130];
        let bm = BitMatrix::from_columns(200, &[c0.clone(), c1.clone(), c2.clone()]).unwrap();
        let expected =
            |x: &[usize], y: &[usize]| -> u64 { x.iter().filter(|r| y.contains(r)).count() as u64 };
        assert_eq!(bm.and_popcount(0, 1), expected(&c0, &c1));
        assert_eq!(bm.and_popcount(1, 0), expected(&c0, &c1));
        assert_eq!(bm.and_popcount(0, 2), 0);
        assert_eq!(bm.and_popcount(0, 0), c0.len() as u64);
        assert_eq!(bm.and_popcount(1, 2), 0);
        // Against an empty column.
        let with_empty = BitMatrix::from_columns(200, &[c0, vec![]]).unwrap();
        assert_eq!(with_empty.and_popcount(0, 1), 0);
    }

    #[test]
    fn unrolled_and_popcount_matches_the_scalar_merge_join() {
        // Column shapes chosen to hit every path: long aligned runs (the
        // 4-wide fast path), misaligned overlaps (scalar merge steps),
        // ragged tails shorter than 4 words, and empty columns.
        let nrows = 64 * 40;
        let dense_a: Vec<usize> = (0..nrows).step_by(3).collect(); // every word present
        let dense_b: Vec<usize> = (0..nrows).step_by(5).collect(); // every word present
        let offset: Vec<usize> = (64 * 7..64 * 23).step_by(2).collect(); // contiguous word run
        let sparse: Vec<usize> = (0..40).map(|w| w * 64 + (w * 13) % 64).collect();
        let ragged: Vec<usize> = vec![0, 1, 70, 200]; // 3 stored words
        let columns = vec![dense_a, dense_b, offset, sparse, ragged, vec![], (0..nrows).collect()];
        let bm = BitMatrix::from_columns(nrows, &columns).unwrap();
        for a in 0..columns.len() {
            for b in 0..columns.len() {
                assert_eq!(
                    bm.and_popcount(a, b),
                    bm.and_popcount_scalar(a, b),
                    "columns ({a}, {b}) diverge from the scalar kernel"
                );
            }
        }
        // Cross-check one pair against the set-intersection definition.
        let inter = columns[0].iter().filter(|r| columns[1].contains(r)).count() as u64;
        assert_eq!(bm.and_popcount(0, 1), inter);
    }

    #[test]
    fn words_per_nonzero_reflects_clustering() {
        // Clustered rows share words: 64 rows in one word -> ratio 1/64.
        let clustered = BitMatrix::from_columns(64, &[(0..64).collect()]).unwrap();
        assert!((clustered.words_per_nonzero() - 1.0 / 64.0).abs() < 1e-12);
        // Spread rows: one word per nonzero -> ratio 1.
        let spread = BitMatrix::from_columns(256, &[vec![0, 64, 128, 192]]).unwrap();
        assert!((spread.words_per_nonzero() - 1.0).abs() < 1e-12);
        let empty = BitMatrix::from_columns(64, &[vec![]]).unwrap();
        assert_eq!(empty.words_per_nonzero(), 0.0);
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
