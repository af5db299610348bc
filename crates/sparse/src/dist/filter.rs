//! The zero-row filter vector `f^(l)` (Eqs. 5–6) and its distributed
//! construction.
//!
//! Genomic indicator matrices are hypersparse: most attribute rows of a
//! batch have no entry in any sample. The filter marks the rows that are
//! nonzero in at least one sample and renumbers the survivors
//! contiguously. In the paper the filter vector is built with
//! accumulate-writes over a `(max, ×)` monoid and then "collected on all
//! processors". [`dist_row_filter`] reproduces that formulation: every
//! rank packs its observed rows into a dense bitmap (one *bit* per batch
//! row), the bitmaps are OR-allreduced — `O(batch_rows / 8)` bytes per
//! message — and the reduced bitmap *is* the filter each rank keeps: it
//! moves into the [`RowFilter`] as its rank directory, with only the
//! per-word survivor counts built beside it. The earlier index-based
//! construction is kept as [`dist_row_filter_indexed`] (it allgathers
//! `O(observed rows × 8)` bytes) so benchmarks can measure the saving.
//!
//! Renumbering (Eq. 6's prefix sum) is [`RowFilter::compacted_index`]: a
//! popcount-prefix lookup in that directory where the survivors are dense
//! enough to afford a bitmap over the batch, a binary search of the
//! sorted survivors where they are not — see [`RowFilter`] for the guard
//! and why it is about memory. The survivors are listed as indices only
//! for a caller that asks ([`RowFilter::nonzero_rows`]).
//! [`BitMatrix::from_filtered_columns`](crate::bitmat::BitMatrix::from_filtered_columns)
//! calls it while it packs; its inverse [`RowFilter::select`] maps a range
//! of output word rows back to the source rows a packer must read for it.
//! A driver that filters batch after batch keeps a [`DistRowFilter`]: each
//! rank scatters its observed rows into the last batch's bitmap, and the
//! allreduce and the directory reuse that rank's buffers, so a batch no
//! larger than the one before allocates nothing of the bitmap's size.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::bitmat::{bitmap_rows, pack_row_bitmap, pack_row_bitmap_into, WORD_BITS};
use crate::csc::drop_slack;
use crate::error::SparseResult;
use gas_dstsim::comm::Communicator;

/// The compacted zero-row filter of one batch.
///
/// Renumbering a row is Eq. 6's prefix sum. Where the survivors are dense
/// enough the filter is a *rank directory* — the surviving-row bitmap
/// plus, per 64-row word, the count of survivors before it — so
/// [`RowFilter::compacted_index`] is one bit test and one popcount, and
/// the sorted survivor list exists only once [`RowFilter::nonzero_rows`]
/// has been asked for. The directory costs `⌈batch_rows/64⌉` words and is
/// kept only when that is no more than the number of survivors:
/// `batch_rows` is the k-mer universe (2⁴² at k = 21) while a hypersparse
/// batch holds a handful of rows, and a filter must stay `O(survivors)`
/// in memory. Below that density the filter is the sorted survivor list
/// and `compacted_index` binary-searches it. The guard is a function of
/// `(batch_rows, survivors)` alone, so one logical filter has one
/// representation however it was built — which is what lets equality and
/// [`RowFilter::fingerprint`] read whichever one is there.
#[derive(Debug, Clone)]
pub struct RowFilter {
    batch_rows: usize,
    survivors: usize,
    /// Present iff `⌈batch_rows/64⌉ ≤ survivors`.
    rank: Option<RankDirectory>,
    /// The sorted survivors: set from the start without a directory, on
    /// first request with one.
    nonzero: OnceLock<Vec<usize>>,
}

/// Bit `r` of `words` is set iff row `r` survives (exactly
/// `⌈batch_rows/64⌉` words, no bit at or past `batch_rows`); `before[w]`
/// is the number of survivors in words `0..w`.
#[derive(Debug, Clone, Default)]
struct RankDirectory {
    words: Vec<u64>,
    before: Vec<usize>,
}

impl RankDirectory {
    /// Recount `before` (refilled in place) for `words`, which is exactly
    /// the batch's bitmap, tail bits clear; returns the survivor count.
    fn recount(&mut self) -> usize {
        self.before.clear();
        self.before.reserve_exact(self.words.len());
        let mut seen = 0usize;
        self.before.extend(self.words.iter().map(|w| {
            let at = seen;
            seen += w.count_ones() as usize;
            at
        }));
        drop_slack(&mut self.before);
        seen
    }
}

impl PartialEq for RowFilter {
    fn eq(&self, other: &Self) -> bool {
        if (self.batch_rows, self.survivors) != (other.batch_rows, other.survivors) {
            return false;
        }
        match (&self.rank, &other.rank) {
            (Some(a), Some(b)) => a.words == b.words,
            _ => self.nonzero_rows() == other.nonzero_rows(),
        }
    }
}

impl Eq for RowFilter {}

impl RowFilter {
    /// `nonzero` is strictly ascending and `< batch_rows`.
    fn from_sorted(batch_rows: usize, nonzero: Vec<usize>) -> Self {
        let rank = (batch_rows.div_ceil(WORD_BITS) <= nonzero.len()).then(|| {
            let mut dir =
                RankDirectory { words: pack_row_bitmap(batch_rows, &nonzero), before: Vec::new() };
            dir.recount();
            dir
        });
        let survivors = nonzero.len();
        RowFilter { batch_rows, survivors, rank, nonzero: OnceLock::from(nonzero) }
    }

    /// The filter whose survivors are the set bits of `words` below
    /// `batch_rows`; a bitmap that passes the density guard is kept as
    /// the directory, not copied into one.
    fn from_words(batch_rows: usize, words: Vec<u64>) -> Self {
        RowFilter::from_directory(batch_rows, RankDirectory { words, before: Vec::new() }).0
    }

    /// The filter whose survivors are the set bits of `dir.words` below
    /// `batch_rows`, the words cut or zero-extended to the batch's
    /// `⌈batch_rows/64⌉`. Where the density guard allows, `dir` becomes the
    /// directory, its counts recounted in place; otherwise the filter is
    /// the sorted list and `dir` comes back, for its buffers to be reused.
    fn from_directory(batch_rows: usize, mut dir: RankDirectory) -> (Self, Option<RankDirectory>) {
        let nwords = batch_rows.div_ceil(WORD_BITS);
        dir.words.resize(nwords, 0);
        if let (Some(last), tail @ 1..) = (dir.words.last_mut(), batch_rows % WORD_BITS) {
            *last &= (1u64 << tail) - 1;
        }
        let survivors = dir.recount();
        if nwords > survivors {
            return (RowFilter::from_sorted(batch_rows, bitmap_rows(&dir.words)), Some(dir));
        }
        (RowFilter { batch_rows, survivors, rank: Some(dir), nonzero: OnceLock::new() }, None)
    }

    /// Build a filter from locally known nonzero rows (clipped to the
    /// batch here, and sorted and deduped unless they already ascend).
    pub fn from_local(batch_rows: usize, mut rows: Vec<usize>) -> Self {
        rows.retain(|&r| r < batch_rows);
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            rows.sort_unstable();
            rows.dedup();
        }
        RowFilter::from_sorted(batch_rows, rows)
    }

    /// Build a filter from a packed nonzero-row bitmap (as produced by
    /// [`pack_row_bitmap`]), of any length; bits beyond `batch_rows` are
    /// ignored.
    pub fn from_bitmap(batch_rows: usize, words: &[u64]) -> Self {
        let nwords = batch_rows.div_ceil(WORD_BITS);
        RowFilter::from_words(batch_rows, words[..nwords.min(words.len())].to_vec())
    }

    /// Number of rows of the unfiltered batch.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// The surviving (nonzero) rows, sorted ascending. A filter that
    /// keeps a rank directory lists them on the first call.
    pub fn nonzero_rows(&self) -> &[usize] {
        self.nonzero.get_or_init(|| {
            bitmap_rows(&self.rank.as_ref().expect("a filter without a list has a directory").words)
        })
    }

    /// Number of surviving rows.
    pub fn num_nonzero_rows(&self) -> usize {
        self.survivors
    }

    /// Fraction of batch rows removed by the filter.
    pub fn removed_fraction(&self) -> f64 {
        if self.batch_rows == 0 {
            return 0.0;
        }
        1.0 - self.survivors as f64 / self.batch_rows as f64
    }

    /// Compacted index of `row` after filtering, or `None` if the filter
    /// removed it.
    pub fn compacted_index(&self, row: usize) -> Option<usize> {
        let Some(rank) = &self.rank else {
            return self.nonzero_rows().binary_search(&row).ok();
        };
        let word = *rank.words.get(row / WORD_BITS)?;
        let bit = 1u64 << (row % WORD_BITS);
        (word & bit != 0)
            .then(|| rank.before[row / WORD_BITS] + (word & (bit - 1)).count_ones() as usize)
    }

    /// The source row of the `k`-th survivor (counting from 0), or `None`
    /// past the last: the inverse of [`RowFilter::compacted_index`]. With
    /// a rank directory this is a binary search of the per-word survivor
    /// counts and a walk over one word's set bits; without one it is
    /// `nonzero_rows()[k]`.
    pub fn select(&self, k: usize) -> Option<usize> {
        if k >= self.survivors {
            return None;
        }
        let Some(rank) = &self.rank else {
            return Some(self.nonzero_rows()[k]);
        };
        // The last word with at most `k` survivors before it holds the
        // `k`-th: every later one has more, and `k < survivors`.
        let w = rank.before.partition_point(|&b| b <= k) - 1;
        let mut word = rank.words[w];
        for _ in rank.before[w]..k {
            word &= word - 1;
        }
        Some(w * WORD_BITS + word.trailing_zeros() as usize)
    }

    /// A stable fingerprint of this filter: the batch extent plus the
    /// surviving rows, read in the one representation the density guard
    /// gives them (directory words above it, the sorted list below), so
    /// equal filters have equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.batch_rows.hash(&mut h);
        match &self.rank {
            Some(rank) => rank.words.hash(&mut h),
            None => self.nonzero_rows().hash(&mut h),
        }
        h.finish()
    }
}

/// One rank's bitmap filter kept from batch to batch: the filter of the
/// last batch, whose bitmap and per-word counts the next batch's filter is
/// built in, and the buffer the allreduce root broadcasts from
/// ([`Communicator::allreduce_in_place`]). Every rank of the communicator
/// keeps one and calls [`DistRowFilter::rebuild`] once per batch. Each
/// buffer holds at most twice what the last batch used of it.
#[derive(Debug)]
pub struct DistRowFilter {
    filter: RowFilter,
    /// The buffers of a directory while `filter` is the sorted list.
    spare: RankDirectory,
    payload: Arc<Vec<u64>>,
}

impl Default for DistRowFilter {
    fn default() -> Self {
        DistRowFilter {
            filter: RowFilter::from_sorted(0, Vec::new()),
            spare: RankDirectory::default(),
            payload: Arc::default(),
        }
    }
}

impl DistRowFilter {
    /// [`dist_row_filter`] of a batch of `batch_rows` rows, built in this
    /// rank's kept buffers: `observe` sets bit `r` of the zeroed
    /// `⌈batch_rows/64⌉`-word bitmap it is given for every row `r` this rank
    /// observes (bits at or past `batch_rows` are ignored), the bitmaps are
    /// OR-allreduced in place, and the result replaces the last batch's
    /// filter. Collective over `comm`, whose messages and bytes are those of
    /// `dist_row_filter`.
    pub fn rebuild(
        &mut self,
        comm: &Communicator,
        batch_rows: usize,
        observe: impl FnOnce(&mut [u64]),
    ) -> SparseResult<&RowFilter> {
        let last = std::mem::replace(&mut self.filter, RowFilter::from_sorted(0, Vec::new()));
        let mut dir = last.rank.unwrap_or_else(|| std::mem::take(&mut self.spare));
        let nwords = batch_rows.div_ceil(WORD_BITS);
        dir.words.clear();
        dir.words.reserve_exact(nwords);
        dir.words.resize(nwords, 0);
        drop_slack(&mut dir.words);
        observe(&mut dir.words);
        comm.allreduce_in_place(&mut dir.words, &mut self.payload, |a, b| *a | *b)?;
        // Charge the prefix-sum renumbering of the survivors.
        comm.add_flops(dir.words.len() as u64);
        let (filter, unused) = RowFilter::from_directory(batch_rows, dir);
        self.filter = filter;
        if let Some(dir) = unused {
            self.spare = dir;
        }
        Ok(&self.filter)
    }
}

/// Build the batch filter collectively with the paper's bitmap
/// formulation: every rank packs the rows present in its local columns
/// into a dense bitmap, the bitmaps are combined with a bitwise-OR
/// allreduce, and every rank keeps the identical reduced bitmap as its
/// filter's rank directory (by value: it is not copied or expanded).
/// Communication is `⌈batch_rows / 64⌉` words per message regardless of
/// how many row indices were observed. A driver that filters batch after
/// batch keeps a [`DistRowFilter`] instead.
pub fn dist_row_filter(
    comm: &Communicator,
    batch_rows: usize,
    local_rows: &[usize],
) -> SparseResult<RowFilter> {
    let mut kept = DistRowFilter::default();
    let observe = |words: &mut [u64]| pack_row_bitmap_into(words, batch_rows, local_rows);
    kept.rebuild(comm, batch_rows, observe)?;
    Ok(kept.filter)
}

/// The index-based construction this module used before the bitmap
/// formulation: every rank contributes the raw row indices it observed
/// and an allgather makes the union available everywhere. Kept as the
/// baseline of communication-volume tests and the reference in
/// equivalence tests; [`dist_row_filter`] moves `≥ 8×` fewer bytes on
/// realistic batches.
pub fn dist_row_filter_indexed(
    comm: &Communicator,
    batch_rows: usize,
    local_rows: &[usize],
) -> SparseResult<RowFilter> {
    let mut mine: Vec<u64> = local_rows.iter().map(|&r| r as u64).collect();
    mine.sort_unstable();
    mine.dedup();
    let gathered = comm.allgatherv(&mine)?;
    let mut all: Vec<usize> = gathered.into_iter().flatten().map(|r| r as usize).collect();
    all.sort_unstable();
    all.dedup();
    // Charge the prefix-sum renumbering of the survivors.
    comm.add_flops(all.len() as u64);
    Ok(RowFilter::from_local(batch_rows, all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Rng;
    use gas_dstsim::runtime::Runtime;

    #[test]
    fn from_local_sorts_dedups_and_clips() {
        let f = RowFilter::from_local(10, vec![7, 2, 7, 11, 0]);
        assert_eq!(f.nonzero_rows(), &[0, 2, 7]);
        assert_eq!(f.num_nonzero_rows(), 3);
        assert_eq!(f.batch_rows(), 10);
        assert!((f.removed_fraction() - 0.7).abs() < 1e-12);
        assert_eq!(f.compacted_index(2), Some(1));
        assert_eq!(f.compacted_index(3), None);
    }

    #[test]
    fn from_bitmap_matches_from_local() {
        let rows = vec![0usize, 5, 63, 64, 99];
        let bitmap = pack_row_bitmap(100, &rows);
        assert_eq!(RowFilter::from_bitmap(100, &bitmap), RowFilter::from_local(100, rows.clone()));
        // Bits beyond the batch extent are dropped.
        let narrow = RowFilter::from_bitmap(64, &bitmap);
        assert_eq!(narrow.nonzero_rows(), &[0, 5, 63]);
    }

    #[test]
    fn compacted_index_equals_binary_search_on_both_sides_of_the_density_guard() {
        let mut rng = Rng(5);
        // Draws per batch: around one survivor per 64-row word (two more
        // are added below), well under it, well over it, and none.
        for (batch_rows, survivors) in [
            (0usize, 0usize),
            (1, 1),
            (640, 0),
            (640, 7),
            (640, 8),
            (640, 9),
            (6400, 20),
            (1000, 400),
        ] {
            let mut rows: Vec<usize> = (0..survivors).map(|_| rng.below(batch_rows)).collect();
            rows.extend([0, batch_rows.saturating_sub(1)].iter().filter(|_| survivors > 0));
            rows.push(batch_rows + 7); // clipped
            let local = RowFilter::from_local(batch_rows, rows.clone());
            let bitmap = RowFilter::from_bitmap(batch_rows, &pack_row_bitmap(batch_rows, &rows));
            assert_eq!(local, bitmap);
            assert_eq!(local.fingerprint(), bitmap.fingerprint());
            for f in [&local, &bitmap] {
                assert_eq!(
                    f.rank.is_some(),
                    batch_rows.div_ceil(WORD_BITS) <= f.num_nonzero_rows(),
                    "{batch_rows} rows, {survivors} drawn"
                );
                for r in 0..batch_rows + 64 {
                    assert_eq!(
                        f.compacted_index(r),
                        f.nonzero_rows().binary_search(&r).ok(),
                        "row {r} of {batch_rows}, {survivors} drawn"
                    );
                }
                for (k, &r) in f.nonzero_rows().iter().enumerate() {
                    assert_eq!(f.select(k), Some(r), "survivor {k} of {batch_rows} rows");
                }
                assert_eq!(f.select(f.num_nonzero_rows()), None);
            }
        }
        // A universe-sized batch stays O(survivors).
        let sparse = RowFilter::from_local(1 << 40, vec![1 << 39, 3, 7]);
        assert!(sparse.rank.is_none());
        assert_eq!(sparse.compacted_index(1 << 39), Some(2));
        assert_eq!(sparse.compacted_index(usize::MAX), None);
    }

    #[test]
    fn from_bitmap_of_any_length_equals_from_local_on_the_clipped_rows() {
        let mut rng = Rng(24);
        let mut directories = [0usize; 2];
        // (batch rows, rows drawn): under and over one survivor per word.
        for (batch_rows, drawn) in
            [(0usize, 0usize), (1, 1), (64, 1), (700, 3), (700, 40), (6400, 99)]
        {
            let nwords = batch_rows.div_ceil(WORD_BITS);
            // Rows over a span a few words longer than the batch, so some
            // set bits lie past `batch_rows` in its last word and beyond.
            let span = batch_rows + 3 * WORD_BITS;
            let mut rows: Vec<usize> = (0..drawn).map(|_| rng.below(span)).collect();
            rows.extend([batch_rows, batch_rows + 1, span - 1]);
            let full = pack_row_bitmap(span, &rows);
            let clipped: Vec<usize> = rows.iter().copied().filter(|&r| r < batch_rows).collect();
            let local = RowFilter::from_local(batch_rows, clipped.clone());
            // Longer than the batch, exactly its length, and cut short
            // (the rows in the missing words are then absent).
            for len in [full.len(), nwords, nwords / 2] {
                let kept: Vec<usize> =
                    clipped.iter().copied().filter(|&r| r < len * WORD_BITS).collect();
                let expected = if len >= nwords {
                    local.clone()
                } else {
                    RowFilter::from_local(batch_rows, kept)
                };
                let ctx = format!("{batch_rows} rows, {drawn} drawn, {len} of {nwords} words");
                for f in [
                    RowFilter::from_bitmap(batch_rows, &full[..len]),
                    RowFilter::from_words(batch_rows, full[..len].to_vec()),
                ] {
                    assert_eq!(f, expected, "{ctx}");
                    assert_eq!(f.rank.is_some(), expected.rank.is_some(), "{ctx}");
                    assert_eq!(f.rank.is_some(), nwords <= f.num_nonzero_rows(), "{ctx}");
                    directories[usize::from(f.rank.is_some())] += 1;
                    assert_eq!(f.fingerprint(), expected.fingerprint(), "{ctx}");
                    assert_eq!(f.num_nonzero_rows(), expected.nonzero_rows().len(), "{ctx}");
                    assert_eq!(f.removed_fraction(), expected.removed_fraction(), "{ctx}");
                    for r in 0..span + WORD_BITS {
                        assert_eq!(
                            f.compacted_index(r),
                            expected.nonzero_rows().binary_search(&r).ok(),
                            "row {r}: {ctx}"
                        );
                    }
                    // Listed last: everything above ran without the list.
                    assert_eq!(f.nonzero_rows(), expected.nonzero_rows(), "{ctx}");
                }
            }
        }
        assert!(directories.iter().all(|&n| n >= 6), "both sides of the guard: {directories:?}");
    }

    #[test]
    fn fingerprints_distinguish_filters() {
        // Three survivors of 1000 rows sit under the density guard (the
        // list is hashed), sixty of 128 over it (the directory is).
        for (batch_rows, rows) in
            [(1000usize, vec![1usize, 2, 3]), (128, (0..120).step_by(2).collect())]
        {
            let a = RowFilter::from_local(batch_rows, rows.clone());
            let mut shuffled = rows.clone();
            shuffled.reverse();
            shuffled.push(rows[0]);
            assert_eq!(a.fingerprint(), RowFilter::from_local(batch_rows, shuffled).fingerprint());
            let mut one_row_off = rows.clone();
            *one_row_off.last_mut().unwrap() += 1;
            let b = RowFilter::from_local(batch_rows, one_row_off);
            let c = RowFilter::from_local(batch_rows + 1, rows.clone());
            assert_eq!(a.rank.is_some(), batch_rows == 128);
            assert_ne!(a, b);
            assert_ne!(a, c);
            assert_ne!(a.fingerprint(), b.fingerprint());
            assert_ne!(a.fingerprint(), c.fingerprint());
        }
    }

    #[test]
    fn empty_batch_has_zero_removed_fraction() {
        let f = RowFilter::from_local(0, vec![]);
        assert_eq!(f.num_nonzero_rows(), 0);
        assert_eq!(f.removed_fraction(), 0.0);
    }

    #[test]
    fn distributed_filter_is_the_union_on_every_rank() {
        let out = Runtime::new(4)
            .run(|ctx| {
                // Rank r knows rows {r, 10 + r}.
                let local = vec![ctx.rank(), 10 + ctx.rank()];
                dist_row_filter(ctx.world(), 100, &local).unwrap()
            })
            .unwrap();
        let expected = RowFilter::from_local(100, vec![0, 1, 2, 3, 10, 11, 12, 13]);
        for f in &out.results {
            assert_eq!(f, &expected);
        }
        // The allreduce moved bytes on every rank.
        assert!(out.aggregate().total_bytes_sent > 0);
    }

    #[test]
    fn bitmap_and_indexed_filters_agree() {
        for p in [1usize, 3, 4, 6] {
            let bitmap = Runtime::new(p)
                .run(|ctx| {
                    let local: Vec<usize> =
                        (0..40).map(|i| (i * 13 + ctx.rank() * 7) % 257).collect();
                    dist_row_filter(ctx.world(), 257, &local).unwrap()
                })
                .unwrap();
            let indexed = Runtime::new(p)
                .run(|ctx| {
                    let local: Vec<usize> =
                        (0..40).map(|i| (i * 13 + ctx.rank() * 7) % 257).collect();
                    dist_row_filter_indexed(ctx.world(), 257, &local).unwrap()
                })
                .unwrap();
            assert_eq!(bitmap.results, indexed.results, "p = {p}");
        }
    }

    #[test]
    fn bitmap_filter_moves_fewer_bytes_than_indexed() {
        // A dense-ish batch: many observed rows per rank, so shipping raw
        // 8-byte indices dwarfs the one-bit-per-row bitmaps.
        let p = 8;
        let batch_rows = 20_000;
        let local = |rank: usize| -> Vec<usize> {
            (0..4_000).map(|i| (i * 5 + rank) % batch_rows).collect()
        };
        let bitmap = Runtime::new(p)
            .run(|ctx| {
                dist_row_filter(ctx.world(), batch_rows, &local(ctx.rank())).unwrap();
            })
            .unwrap();
        let indexed = Runtime::new(p)
            .run(|ctx| {
                dist_row_filter_indexed(ctx.world(), batch_rows, &local(ctx.rank())).unwrap();
            })
            .unwrap();
        let b = bitmap.aggregate().total_bytes_sent;
        let i = indexed.aggregate().total_bytes_sent;
        assert!(i >= 8 * b, "bitmap filter should cut traffic ≥ 8×: bitmap {b} vs indexed {i}");
    }

    #[test]
    fn a_kept_filter_rebuilt_batch_after_batch_is_the_union_on_every_rank() {
        // (batch rows, rows each rank observes): directories of several
        // sizes, a batch whose bitmap falls back to the sorted list, and a
        // repeat of the first shape. Once grown, the bitmap buffer is
        // reused while a batch uses at least half of it, and gives the
        // rest back when one uses less.
        let batches = [(257usize, 40usize), (1000, 300), (600, 60), (1000, 2), (257, 40)];
        let rows = |rank: usize, (batch_rows, count): (usize, usize)| -> Vec<usize> {
            (0..count).map(|i| (i * 13 + rank * 7) % batch_rows).collect()
        };
        for p in [1usize, 3, 4, 6] {
            let kept = Runtime::new(p)
                .run(|ctx| {
                    let mut kept = DistRowFilter::default();
                    let mut words_at = Vec::new();
                    let mut filters = Vec::new();
                    for &batch in &batches {
                        let mine = rows(ctx.rank(), batch);
                        let observe = |words: &mut [u64]| {
                            mine.iter().for_each(|&r| words[r / WORD_BITS] |= 1 << (r % WORD_BITS))
                        };
                        let built = kept.rebuild(ctx.world(), batch.0, observe).unwrap();
                        filters.push(built.clone());
                        let words = kept.filter.rank.as_ref().map(|d| &d.words);
                        words_at.push(words.map(|w| (w.as_ptr() as usize, w.capacity())));
                    }
                    (filters, words_at)
                })
                .unwrap();
            let fresh = Runtime::new(p)
                .run(|ctx| {
                    let each = batches.iter().map(|&batch| {
                        dist_row_filter(ctx.world(), batch.0, &rows(ctx.rank(), batch)).unwrap()
                    });
                    each.collect::<Vec<_>>()
                })
                .unwrap();
            assert_eq!(kept.aggregate().total_bytes_sent, fresh.aggregate().total_bytes_sent);
            for (rank, ((filters, words_at), expected)) in
                kept.results.iter().zip(&fresh.results).enumerate()
            {
                assert_eq!(filters, expected, "p = {p}, rank {rank}");
                for (i, &batch) in batches.iter().enumerate() {
                    let union = (0..p).flat_map(|r| rows(r, batch)).collect();
                    assert_eq!(filters[i], RowFilter::from_local(batch.0, union), "p = {p}");
                }
                assert!(words_at[3].is_none(), "16 words, 12 survivors at most: the sorted list");
                assert_eq!(words_at[1].map(|(at, _)| at), words_at[2].map(|(at, _)| at));
                assert_eq!(words_at[2].map(|(_, capacity)| capacity), Some(16), "p = {p}");
                assert_eq!(words_at[4].map(|(_, capacity)| capacity), Some(5), "p = {p}");
            }
        }
    }

    #[test]
    fn distributed_filter_matches_single_rank() {
        let local: Vec<usize> = (0..50).map(|i| (i * 7) % 97).collect();
        let single =
            Runtime::new(1).run(|ctx| dist_row_filter(ctx.world(), 97, &local).unwrap()).unwrap();
        assert_eq!(single.results[0], RowFilter::from_local(97, local.clone()));
    }
}
