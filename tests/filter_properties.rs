//! Property tests of the zero-row filter: the bitmap formulation must be
//! indistinguishable from the index-based one — identical kept-row sets
//! and identical compacted remaps — for arbitrary sparsity patterns, both
//! locally and through the distributed collectives — while moving at
//! least 8× fewer bytes.

use genomeatscale::core::indicator::SampleCollection;
use genomeatscale::dstsim::runtime::Runtime;
use genomeatscale::genomics::datasets::DatasetSpec;
use genomeatscale::sparse::bitmat::{bitmap_rows, pack_row_bitmap};
use genomeatscale::sparse::dist::filter::{dist_row_filter, dist_row_filter_indexed, RowFilter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn bitmap_and_index_filters_agree_locally(
        batch_rows in 1usize..3000,
        raw in prop::collection::vec(0usize..4000, 0..400),
    ) {
        // Indices may exceed batch_rows: both constructions must clip.
        let indexed = RowFilter::from_local(batch_rows, raw.clone());
        let bitmap_words = pack_row_bitmap(batch_rows, &raw);
        let bitmap = RowFilter::from_bitmap(batch_rows, &bitmap_words);
        prop_assert_eq!(&bitmap, &indexed);
        prop_assert_eq!(bitmap_rows(&bitmap_words), indexed.nonzero_rows().to_vec());
        // The remap agrees entry for entry across the whole batch.
        for row in 0..batch_rows {
            prop_assert_eq!(bitmap.compacted_index(row), indexed.compacted_index(row));
        }
        prop_assert_eq!(bitmap.fingerprint(), indexed.fingerprint());
    }

    #[test]
    fn bitmap_and_index_filters_agree_distributed(
        batch_rows in 1usize..1200,
        seed in 0u64..1_000_000,
        nranks in 1usize..7,
    ) {
        // Deterministic per-rank row sets with overlapping coverage.
        let local = |rank: usize| -> Vec<usize> {
            (0..64)
                .map(|i| ((seed as usize).wrapping_add(i * 31 + rank * 17) * 7919) % (batch_rows * 2))
                .collect()
        };
        let bitmap = Runtime::new(nranks)
            .run(|ctx| dist_row_filter(ctx.world(), batch_rows, &local(ctx.rank())).unwrap())
            .unwrap();
        let indexed = Runtime::new(nranks)
            .run(|ctx| dist_row_filter_indexed(ctx.world(), batch_rows, &local(ctx.rank())).unwrap())
            .unwrap();
        prop_assert_eq!(&bitmap.results, &indexed.results);
        // Every rank holds the identical filter.
        for f in &bitmap.results {
            prop_assert_eq!(f, &bitmap.results[0]);
        }
    }
}

#[test]
fn bitmap_filter_moves_eight_times_fewer_bytes_than_the_index_allgather() {
    // One bit per batch row instead of 8 bytes per observed row: on a
    // 4,000-row batch of 32 samples at density 0.02 the ratio is 17.7×
    // at p = 2 and grows with p.
    let samples = DatasetSpec::explicit(4_000, 32, 0.02, 77).generate().unwrap();
    let collection =
        SampleCollection::from_sorted_sets(samples).unwrap().with_universe(4_000).unwrap();
    let batch_rows = collection.m() as usize;
    let columns = collection.batch_columns_all(0, collection.m());
    for ranks in [2, 4, 8, 16] {
        // Rank r observes the rows of its block of the sample columns —
        // the same reading discipline as the distributed driver.
        let per_rank_rows: Vec<Vec<usize>> = (0..ranks)
            .map(|r| {
                let (lo, hi) = (r * collection.n() / ranks, (r + 1) * collection.n() / ranks);
                columns[lo..hi].iter().flatten().copied().collect()
            })
            .collect();
        let run = |bitmap: bool| {
            let out = Runtime::new(ranks)
                .run(|ctx| {
                    let rows = &per_rank_rows[ctx.rank()];
                    if bitmap {
                        dist_row_filter(ctx.world(), batch_rows, rows).unwrap()
                    } else {
                        dist_row_filter_indexed(ctx.world(), batch_rows, rows).unwrap()
                    }
                })
                .unwrap();
            (out.aggregate().total_bytes_sent, out.results)
        };
        let (bitmap_bytes, bitmap_filters) = run(true);
        let (indexed_bytes, indexed_filters) = run(false);
        assert_eq!(bitmap_filters, indexed_filters, "p = {ranks}");
        assert!(
            indexed_bytes >= 8 * bitmap_bytes,
            "p = {ranks}: bitmap {bitmap_bytes} B vs indexed {indexed_bytes} B"
        );
    }
}
