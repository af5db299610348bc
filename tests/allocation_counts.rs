//! Counted allocations of the distributed driver. This binary installs a
//! counting global allocator (`tests/common`) and holds one test, so no
//! other test's allocations land in its counts.

mod common;

use genomeatscale::core::algorithm::similarity_at_scale_distributed;
use genomeatscale::prelude::*;

#[global_allocator]
static ALLOC: common::CountingAlloc = common::CountingAlloc;

/// Rows per batch: 2²⁰, so a filter bitmap is 128 KiB.
const ROWS: u64 = 1 << 20;

/// Allocations of at least 2¹⁶ bytes (64 KiB) are the large ones.
const LARGE: u32 = 16;

/// Eight samples over `batches` batches of `ROWS` rows, every batch the
/// first one shifted: one in sixteen rows per sample, so about two in five
/// rows survive the filter and every per-batch buffer the driver keeps —
/// the filter's bitmap and counts, the packed operands, the SUMMA blocks
/// at p ≤ 4 — is over 64 KiB.
fn equal_batches(batches: u64) -> SampleCollection {
    let samples = (0..8u64)
        .map(|j| {
            let rows = (0..ROWS).filter(|r| (r * 0x9E37_79B9 + j * 0x7F4A_7C15) >> 8 & 15 == 0);
            let batch: Vec<u64> = rows.collect();
            (0..batches).flat_map(|b| batch.iter().map(move |r| b * ROWS + r)).collect()
        })
        .collect();
    SampleCollection::from_sorted_sets(samples).unwrap().with_universe(batches * ROWS).unwrap()
}

/// The large allocations of one distributed run of `collection` in
/// `batches` batches on `p` ranks, made `runs` times on a fresh thread:
/// the calls and bytes of each run, and its result.
fn large_allocations(
    collection: &SampleCollection,
    batches: usize,
    p: usize,
    runs: usize,
) -> (Vec<(u64, u64)>, SimilarityResult) {
    let config = SimilarityConfig::with_batches(batches);
    assert!(config.use_zero_row_filter);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut counts = Vec::new();
            let mut result = None;
            for _ in 0..runs {
                let (summary, counts_of_run) = common::counted(|| {
                    similarity_at_scale_distributed(collection, &config, p, &Machine::laptop())
                        .unwrap()
                });
                counts.push((counts_of_run.calls_from(LARGE), counts_of_run.bytes_from(LARGE)));
                result = Some(summary.result);
            }
            (counts, result.unwrap())
        })
        .join()
        .unwrap()
    })
}

// The bounds. A large allocation of a run is either
// - a per-run output or its transport: each rank's accumulator block, the
//   blocks gathered on rank 0, `B` and the Jaccard matrix. With n = 8 the
//   largest of them, `B`, is 8 · 8 · 8 = 512 bytes: none is large; or
// - the first fill of a buffer a rank refills from batch to batch: the
//   filter's bitmap and per-word counts, the allreduce root's broadcast
//   buffer, the packed operand blocks and the SUMMA blocks it cuts, which
//   a later batch of the same shape refills within their capacity.
// Hence, for b equal-shaped batches on a fresh thread, large(2b) ≤
// large(b): a buffer that every batch allocated afresh would add b to the
// left side. Rank threads live for one run, but the driver parks their
// buffers on the calling thread, so a second run on it refills them too
// and makes no large allocation at all.
#[test]
fn equal_shaped_batches_after_the_first_allocate_nothing_large() {
    for b in [1usize, 2] {
        let (once, twice) = (equal_batches(b as u64), equal_batches(2 * b as u64));
        for p in [1usize, 4] {
            let (single, single_result) = large_allocations(&once, b, p, 2);
            let (double, double_result) = large_allocations(&twice, 2 * b, p, 2);
            // (calls, bytes) of the first and the second run.
            let ctx = format!("b = {b}, p = {p}: {single:?} for b batches, {double:?} for 2b");
            assert!(double[0].0 <= single[0].0, "{ctx}");
            assert_eq!((single[1].0, double[1].0), (0, 0), "{ctx}");
            // Twice the batches, each the first: every count doubles.
            let (once_b, twice_b) = (single_result.intersections(), double_result.intersections());
            assert!(twice_b.as_slice().iter().zip(once_b.as_slice()).all(|(t, o)| *t == 2 * o));
        }
    }
}
