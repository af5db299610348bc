//! Zero-row filtering of a batch (Eqs. 5–6).
//!
//! Genomic indicator matrices are hypersparse: within a batch of `m̃`
//! rows, the overwhelming majority have no entry in any sample. Before
//! bit-packing, SimilarityAtScale builds a filter vector `f^(l)` marking
//! the rows that appear in at least one sample and renumbers the
//! surviving rows contiguously via a prefix sum. This module provides the
//! shared-memory filter; the distributed variant (built on the simulated
//! runtime's collectives) lives in `gas_sparse::dist::filter`, as does
//! [`RowFilter`] itself: its rank directory makes renumbering one
//! popcount per entry wherever a bitmap over the batch is no larger than
//! the survivor list (a hypersparse batch over the k-mer universe keeps
//! the `O(survivors)` binary search).
//!
//! Both drivers build the filter from the batch's sample slices, in one
//! step (`algorithm::read_filter_pack`) and under one guard,
//! `bitmap_pays`: a batch at most 64 bitmap words per entry scatters its
//! rows with `observe_rows` into the bitmap a kept `DistRowFilter` holds,
//! OR-allreduced across the ranks of the distributed driver; a sparser one
//! — a handful of k-mers over a huge universe — takes the sorted union of
//! its rows, allgathered across ranks (`dist_row_filter_indexed`).
//! Renumbering happens inside packing: the drivers hand the filter to
//! `BitMatrix::refill_from_batch_slices`, which never builds the
//! renumbered lists, and so does [`crate::mask::prepare_batch`] through
//! `BitMatrix::from_filtered_columns`. [`batch_row_filter`] (same guard)
//! and [`apply_filter`] work on column lists: their callers are
//! `prepare_batch` (the allreduce baseline and the perf ledger's replays)
//! and, for `apply_filter`, the ledger's traced replay of the distributed
//! driver.

use gas_sparse::bitmat::WORD_BITS;
pub use gas_sparse::dist::filter::RowFilter;

/// Build the zero-row filter of a batch from its per-sample column lists
/// (batch-local row indices).
///
/// The paper's construction: OR every entry into a one-bit-per-row filter
/// vector — taken while it is at most 64 words per entry, the drivers'
/// guard (`bitmap_pays`). `batch_rows` is the k-mer universe, so for a
/// hypersparse batch the vector would dwarf the data; there the entries
/// are sorted and deduplicated instead, `O(entries)` in memory.
pub fn batch_row_filter(batch_rows: usize, columns: &[Vec<usize>]) -> RowFilter {
    let entries: usize = columns.iter().map(Vec::len).sum();
    if bitmap_pays(batch_rows, entries) {
        let mut words = vec![0u64; batch_rows.div_ceil(WORD_BITS)];
        for &r in columns.iter().flatten().filter(|&&r| r < batch_rows) {
            words[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
        }
        return RowFilter::from_bitmap(batch_rows, &words);
    }
    let mut rows: Vec<usize> = columns.iter().flatten().copied().collect();
    rows.sort_unstable();
    rows.dedup();
    RowFilter::from_local(batch_rows, rows)
}

/// Set the bit of every row of the batch starting at `lo` that appears in
/// `values` in the batch's packed bitmap `words` (each value lies in the
/// batch, whose rows `words` covers).
pub(crate) fn observe_rows(words: &mut [u64], lo: u64, values: &[&[u64]]) {
    for &v in values.iter().copied().flatten() {
        let r = (v - lo) as usize;
        words[r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
    }
}

/// The most bitmap words per batch entry [`bitmap_pays`] allows: the
/// bitmap's bytes stay within 64 times the batch's own.
const BITMAP_WORDS_PER_ENTRY: usize = 64;

/// The filter guard of both drivers and [`batch_row_filter`], a memory
/// bound only: whether a batch of `batch_rows` rows holding `entries`
/// entries filters through the paper's one-bit-per-row bitmap, at most
/// [`BITMAP_WORDS_PER_ENTRY`] words per entry, or — for a batch sparser
/// than that, such as a handful of k-mers over a huge universe — through
/// the sorted union of its rows, `O(entries)` in memory. It is not a
/// crossover of the two branches' collectives (the bitmap's OR-allreduce,
/// the rows' allgather): the distributed driver keeps the paper's
/// allreduce wherever the bitmap is no allocation hazard, and every rank
/// reads `entries` off the collection, so the choice costs no message.
/// The paper-figure tests' batches (fig2c's at 1.04 words per entry,
/// fig3's at 1.59) stay far inside it.
pub(crate) fn bitmap_pays(batch_rows: usize, entries: usize) -> bool {
    batch_rows.div_ceil(WORD_BITS) <= BITMAP_WORDS_PER_ENTRY.saturating_mul(entries)
}

/// Apply a filter to the batch columns: every surviving row index is
/// replaced by its compacted index; rows removed by the filter are
/// dropped (they cannot occur if the filter was built from the same
/// columns, but an externally supplied filter may be narrower).
///
/// No driver calls this: besides `prepare_batch`'s unmasked views it is
/// kept for the perf ledger's phase-by-phase replay of
/// [`crate::algorithm::similarity_at_scale_distributed`], which times
/// renumbering and packing apart.
pub fn apply_filter(columns: &[Vec<usize>], filter: &RowFilter) -> Vec<Vec<usize>> {
    columns
        .iter()
        .map(|col| {
            // Sized for the usual case, a filter built from these columns.
            let mut kept = Vec::with_capacity(col.len());
            kept.extend(col.iter().filter_map(|&r| filter.compacted_index(r)));
            kept
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gas_sparse::bitmat::BitMatrix;

    #[test]
    fn filter_collects_union_of_rows() {
        let columns = vec![vec![2, 900], vec![2, 7], vec![]];
        let f = batch_row_filter(1000, &columns);
        assert_eq!(f.nonzero_rows(), &[2, 7, 900]);
        assert_eq!(f.num_nonzero_rows(), 3);
        assert!((f.removed_fraction() - 0.997).abs() < 1e-9);
    }

    #[test]
    fn apply_filter_renumbers_contiguously() {
        let columns = vec![vec![2, 900], vec![2, 7], vec![]];
        let f = batch_row_filter(1000, &columns);
        let filtered = apply_filter(&columns, &f);
        assert_eq!(filtered[0], vec![0, 2]);
        assert_eq!(filtered[1], vec![0, 1]);
        assert!(filtered[2].is_empty());
    }

    #[test]
    fn filtering_preserves_per_column_counts() {
        let columns = vec![vec![10, 20, 30], vec![20, 40], vec![999]];
        let f = batch_row_filter(1000, &columns);
        let filtered = apply_filter(&columns, &f);
        for (orig, filt) in columns.iter().zip(filtered.iter()) {
            assert_eq!(orig.len(), filt.len());
        }
    }

    #[test]
    fn narrower_external_filter_drops_rows() {
        let columns = vec![vec![1, 5, 9]];
        let narrow = RowFilter::from_local(10, vec![5]);
        let filtered = apply_filter(&columns, &narrow);
        assert_eq!(filtered[0], vec![0]);
    }

    #[test]
    fn universe_sized_batch_stays_proportional_to_its_entries() {
        // 2⁴⁰ rows would be a 16 GiB filter vector: three entries must
        // take the sort path, and renumbering must not index by row.
        let columns = vec![vec![3, 1 << 39], vec![7]];
        let f = batch_row_filter(1 << 40, &columns);
        assert_eq!(f.nonzero_rows(), &[3, 7, 1 << 39]);
        assert_eq!(apply_filter(&columns, &f), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn bitmap_built_and_sort_built_filters_are_the_same_filter() {
        // 130 rows are 3 words: 4 entries take the bitmap path, and the
        // same rows handed to `from_local` unsorted take the sort path.
        let columns = vec![vec![2, 129], vec![2, 64], vec![]];
        let bitmap_built = batch_row_filter(130, &columns);
        let sort_built = RowFilter::from_local(130, vec![129, 64, 2, 2]);
        assert_eq!(bitmap_built, sort_built);
        assert_eq!(bitmap_built.fingerprint(), sort_built.fingerprint());
        assert_eq!(bitmap_built.nonzero_rows(), &[2, 64, 129]);
        // Out-of-range entries are clipped on both paths: 2 entries pay
        // for at most 128 words, so 6400 rows (100 words) build the bitmap
        // and 64 000 rows (1000 words) sort.
        assert_eq!(batch_row_filter(64, &[vec![1, 64, 700]]).nonzero_rows(), &[1]);
        assert_eq!(batch_row_filter(6400, &[vec![1, 6400]]).nonzero_rows(), &[1]);
        assert_eq!(batch_row_filter(64_000, &[vec![1, 64_000]]).nonzero_rows(), &[1]);
    }

    #[test]
    fn slice_filter_is_the_column_filter_on_both_sides_of_the_guard() {
        // A batch starting at value 1000 with four entries, which pay for
        // at most 256 bitmap words: 16 384 rows are exactly 256 words and
        // build the bitmap, one row more is 257 words and sorts; 130 rows
        // are far inside the guard.
        let values: [&[u64]; 3] = [&[1002, 1129], &[1002, 1064], &[]];
        let columns: Vec<Vec<usize>> =
            values.iter().map(|v| v.iter().map(|&x| (x - 1000) as usize).collect()).collect();
        for (batch_rows, bitmap) in [(130usize, true), (16_384, true), (16_385, false)] {
            assert_eq!(bitmap_pays(batch_rows, 4), bitmap, "{batch_rows} rows");
            let mut kept = gas_sparse::dist::filter::DistRowFilter::default();
            let observe = |words: &mut [u64]| observe_rows(words, 1000, &values);
            let f = kept.rebuild(None, batch_rows, observe).unwrap();
            assert_eq!(f, &batch_row_filter(batch_rows, &columns), "{batch_rows} rows");
            assert_eq!(f.nonzero_rows(), &[2, 64, 129]);
        }
        let mut words = vec![0; 3];
        observe_rows(&mut words, 1000, &values);
        assert_eq!(words, vec![1 << 2, 1, 1 << 1]);
    }

    /// `from_filtered_columns` is `from_columns` over `apply_filter`'s
    /// lists; returns whether `filter` keeps a rank directory.
    fn fused_equals_two_step(columns: &[Vec<usize>], filter: &RowFilter) -> bool {
        let two_step =
            BitMatrix::from_columns(filter.num_nonzero_rows(), &apply_filter(columns, filter))
                .unwrap();
        let ctx = format!("{} of {} rows", filter.num_nonzero_rows(), filter.batch_rows());
        assert_eq!(BitMatrix::from_filtered_columns(columns, filter).unwrap(), two_step, "{ctx}");
        filter.batch_rows().div_ceil(WORD_BITS) <= filter.num_nonzero_rows()
    }

    #[test]
    fn renumbering_is_the_rank_among_the_survivors_however_the_filter_was_built() {
        use crate::mask::{prepare_batch, PreparedBatch};
        use crate::minhash::splitmix64;
        // Which side of the density guard each filter fell on.
        let mut directories = [0usize; 2];
        // Per batch: entries drawn per column. 409 600 rows are 6400
        // words, over 64 per entry, so 3 × 20 entries sort. 6400 rows are
        // 100 words: 3 × 60 entries build the bitmap and keep it as the
        // directory, and 3 × 34 build the bitmap but — with under 100
        // distinct rows — fall back to the list. 1000 and 70 rows end in a
        // partial word; 70 rows drawn 300 times per column keep them all.
        for (batch_rows, per_column) in
            [(409_600usize, 20usize), (6400, 60), (6400, 34), (64, 9), (1000, 40), (70, 300)]
        {
            // The fourth column is empty.
            let columns: Vec<Vec<usize>> = (0..4u64)
                .map(|j| {
                    let mut col: Vec<usize> = (0..per_column as u64 * u64::from(j < 3))
                        .map(|i| splitmix64(j << 32 | i) as usize % batch_rows)
                        .collect();
                    col.sort_unstable();
                    col.dedup();
                    col
                })
                .collect();
            let filter = batch_row_filter(batch_rows, &columns);
            let mut survivors: Vec<usize> = columns.iter().flatten().copied().collect();
            survivors.sort_unstable();
            survivors.dedup();
            let listed = RowFilter::from_local(batch_rows, survivors.clone());
            assert_eq!(filter, listed);
            assert_eq!(filter.fingerprint(), listed.fingerprint());
            assert_eq!(filter.num_nonzero_rows(), survivors.len());
            let expected: Vec<Vec<usize>> = columns
                .iter()
                .map(|col| col.iter().map(|r| survivors.binary_search(r).unwrap()).collect())
                .collect();
            assert_eq!(apply_filter(&columns, &filter), expected);
            assert_eq!(apply_filter(&columns, &listed), expected);
            assert_eq!(filter.nonzero_rows(), survivors);
            // A narrower filter drops what it does not keep: half the
            // survivors (under the density guard) or all but two (on the
            // directory side whenever the full filter is).
            let half = RowFilter::from_local(batch_rows, survivors[..survivors.len() / 2].to_vec());
            let all_but_two = RowFilter::from_local(batch_rows, survivors[2..].to_vec());
            for narrow in [&half, &all_but_two] {
                for (col, kept) in columns.iter().zip(apply_filter(&columns, narrow)) {
                    let under: Vec<usize> = col
                        .iter()
                        .filter_map(|r| narrow.nonzero_rows().binary_search(r).ok())
                        .collect();
                    assert_eq!(kept, under);
                }
            }
            // The fused packer equals the two-step path under every one of
            // them, and under the identity filter.
            let identity = RowFilter::from_local(batch_rows, (0..batch_rows).collect());
            for f in [&filter, &listed, &half, &all_but_two, &identity] {
                directories[usize::from(fused_equals_two_step(&columns, f))] += 1;
            }
            // So does `prepare_batch`, bit for bit.
            let (prepared, prepared_filter) =
                prepare_batch(batch_rows, &columns, true, true).unwrap();
            let two_step =
                BitMatrix::from_columns(survivors.len(), &apply_filter(&columns, &filter)).unwrap();
            assert_eq!(prepared, PreparedBatch::Masked(two_step));
            assert_eq!(prepared_filter, filter);
        }
        assert!(directories.iter().all(|&n| n >= 4), "both sides of the guard: {directories:?}");
        // A source word whose survivors straddle two output words: rows
        // 0..60 survive, then ten rows of the second word renumber to
        // 60..70, across the output word boundary at 64.
        let columns: Vec<Vec<usize>> = vec![(0..60).step_by(3).collect(), (64..74).collect()];
        let straddling = batch_row_filter(200, &[(0..60).collect(), (64..74).collect()]);
        assert!(fused_equals_two_step(&columns, &straddling));
        let packed = BitMatrix::from_filtered_columns(&columns, &straddling).unwrap();
        assert_eq!(packed.as_csc().col(1).map(|(w, _)| w).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn empty_batch_yields_empty_filter() {
        let f = batch_row_filter(100, &[vec![], vec![]]);
        assert_eq!(f.num_nonzero_rows(), 0);
        assert_eq!(apply_filter(&[vec![], vec![]], &f), vec![vec![], vec![]]);
    }
}
