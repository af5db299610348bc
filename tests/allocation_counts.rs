//! Counted allocations and live-heap peaks of the paper-path driver. This
//! binary installs a counting global allocator (`tests/common`), and its
//! tests take turns (`SERIAL`), so no test's allocations land in
//! another's counts.

mod common;

use std::sync::Mutex;

use genomeatscale::core::algorithm::{similarity_at_scale, similarity_at_scale_distributed};
use genomeatscale::prelude::*;

/// Held by each test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// The large allocations of one run of `collection` in `batches` batches
/// on `p` ranks, made `runs` times on a fresh thread: the calls and bytes
/// of each run, and its result.
fn large_allocations(
    collection: &SampleCollection,
    batches: usize,
    p: usize,
    runs: usize,
) -> (Vec<(u64, u64)>, SimilarityResult) {
    let config = SimilarityConfig::with_batches(batches);
    assert!(config.use_zero_row_filter);
    let run = || {
        similarity_at_scale_distributed(collection, &config, p, &Machine::laptop()).unwrap().result
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut counts = Vec::new();
            let mut result = None;
            for _ in 0..runs {
                let (result_of_run, counts_of_run) = common::counted(run);
                counts.push((counts_of_run.calls_from(LARGE), counts_of_run.bytes_from(LARGE)));
                result = Some(result_of_run);
            }
            (counts, result.unwrap())
        })
        .join()
        .unwrap()
    })
}

/// Whether the one-rank triangle kernel runs on word-row tiles here
/// (AVX-512 VPOPCNTDQ), which it densifies from the packed batch itself.
/// On the peak fixture that is the tiled body: about a fifth of its word
/// slots hold a word, so the register-blocked body would multiply ≈ 5×
/// the tiled body's products, outside its 3/2 guard, while the tiled
/// body's 5.03× the Gustavson count is inside its 21/4 one (a guard
/// under 5.03 would hand it the Gustavson body's transpose). The full word
/// rows of `equal_batches` run the register-blocked body at p = 1.
/// Elsewhere the Gustavson body reads a CSR view of the packed batch, a
/// transpose the rank keeps and refills from batch to batch: its word-row
/// offsets, its word indices and its words.
fn kernel_runs_tiles() -> bool {
    #[cfg(target_arch = "x86_64")]
    let tiled = std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512vpopcntdq")
        && std::is_x86_feature_detected!("popcnt");
    #[cfg(not(target_arch = "x86_64"))]
    let tiled = false;
    tiled
}

// The bounds. A large allocation of a run is either
// - a per-run output or its transport: each rank's accumulator block, the
//   blocks gathered on rank 0, `B` and the Jaccard matrix. With n = 8 the
//   largest of them, `B`, is 8 · 8 · 8 = 512 bytes: none is large; or
// - the first fill of a buffer a rank refills from batch to batch: the
//   filter's bitmap and per-word counts, the allreduce root's broadcast
//   buffer, the packed operand blocks and the SUMMA blocks it cuts, or,
//   on one rank, which cuts no block, the Gustavson body's transpose of
//   the packed batch where no tiles run, all of which a later batch of
//   the same shape refills within their capacity.
// Hence, for b equal-shaped batches on a fresh thread, large(2b) ≤
// large(b): a buffer that every batch allocated afresh would add b more
// to the left side. Rank threads live for one run, but the driver parks
// their buffers on the calling thread, so a second run on it refills
// them too and makes no large allocation at all.
#[test]
fn equal_shaped_batches_after_the_first_allocate_nothing_large() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

/// Samples of the peak fixture.
const N: usize = 512;

/// Rows per batch of the peak fixture: 2¹⁵, in 64 stripes of 512.
const STRIPE: u64 = 512;
const STRIPES: u64 = 64;

/// `N` samples over `batches` equal batches, each sample one row in every
/// 512-row stripe of a batch: 64 entries a batch, nearly each in a word
/// row of its own once the filter has dropped the ≈ 37 % of rows no
/// sample holds. So the packed operand stores about a word per entry,
/// while `B` is 2 MiB.
fn wide_batches(batches: u64) -> SampleCollection {
    let rows = STRIPE * STRIPES;
    let samples = (0..N as u64)
        .map(|j| {
            let pick =
                |s: u64| ((s * 0x9E37_79B9) ^ (j * 0x7F4A_7C15)).wrapping_mul(0xBF58_476D) >> 7;
            let batch: Vec<u64> = (0..STRIPES).map(|s| s * STRIPE + pick(s) % STRIPE).collect();
            (0..batches).flat_map(|b| batch.iter().map(move |r| b * rows + r)).collect()
        })
        .collect();
    SampleCollection::from_sorted_sets(samples).unwrap().with_universe(batches * rows).unwrap()
}

// The bound on a warmed run's live heap. `similarity_at_scale` is the
// distributed driver on one rank, and the run holds, at its peak, above
// what its thread held before its first run:
// - the result: `B` (moved out of rank 0's accumulator) and the Jaccard
//   matrix, 2 · 8n² bytes;
// - the kept filter: the bitmap, its per-word survivor counts and the
//   allreduce root's broadcast copy of the bitmap, 3 · 8⌈R/64⌉ for R rows
//   a batch;
// - the kept packed operand: a word and a word-row index for each of the
//   batch's e entries (its capacity), and n + 1 column offsets,
//   16e + 8(n + 1);
// - the kernel's row counts, 8 per word row (≤ ⌈R/64⌉), and each kernel
//   thread's tile of at most 32 KiB with its cursors (8 bytes per output
//   row and per column), 32 KiB + 16n per thread;
// - without tiles, the Gustavson body's kept transpose of the packed
//   operand: 16e + 8(⌈R/64⌉ + 1);
// - 64 KiB for the rest: the runtime's channels and cost trackers, the
//   per-sample slices and cardinalities (≤ 16n each), the parked slots.
// A gather through a copy holds three `n × n` at once (the accumulator,
// its gathered copy and the assembled matrix), 8n² above the result, and
// cutting the one SUMMA step's blocks keeps CSC and CSR copies of the
// packed batch, ≈ 2 · 16e: each is more than this bound's slack on the
// fixture (n = 512, R = 2¹⁵, e = 32 768).
fn one_rank_peak_bound(entries: usize, rows: usize, threads: usize) -> usize {
    let (n, words) = (N, rows.div_ceil(64));
    let result = 2 * 8 * n * n;
    let filter = 3 * 8 * words;
    let packed = 16 * entries + 8 * (n + 1);
    let kernel = 8 * words + threads * (32 * 1024 + 16 * n);
    let transpose = if kernel_runs_tiles() { 0 } else { 16 * entries + 8 * (words + 1) };
    result + filter + packed + kernel + transpose + 64 * 1024
}

#[test]
fn a_warmed_one_rank_run_holds_one_result_above_its_kept_buffers() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let collection = wide_batches(2);
    let config = SimilarityConfig::with_batches(2);
    assert!(config.use_zero_row_filter);
    let (rows, entries) = ((STRIPE * STRIPES) as usize, N * STRIPES as usize);
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let bound = one_rank_peak_bound(entries, rows, threads);
    let run = || similarity_at_scale(&collection, &config).unwrap();
    let exact = jaccard_exact_pairwise(&collection);
    let held = std::thread::scope(|s| {
        s.spawn(|| {
            let start = common::live_bytes();
            drop(run());
            let (result, peak) = common::peak_live(run);
            assert_eq!(result, exact);
            peak - start
        })
        .join()
        .unwrap()
    });
    assert!(held <= bound, "{held} bytes held, bound {bound}");
}
