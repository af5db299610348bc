//! Integration tests of the SimilarityAtScale driver: for every rank
//! count (one rank is `similarity_at_scale`), batch count and replication
//! factor, the result must equal the brute-force reference bit for bit,
//! and the communication counters must behave as the paper's analysis
//! predicts.

use genomeatscale::core::algorithm::{similarity_at_scale, similarity_at_scale_distributed};
use genomeatscale::core::baselines::allreduce_jaccard_distributed;
use genomeatscale::core::batch::BatchPlan;
use genomeatscale::genomics::datasets::DatasetSpec;
use genomeatscale::prelude::*;
use genomeatscale::sparse::dist::DistAta;

mod schedule;
use schedule::{assert_schedule, paper_schedule};

fn workload(seed: u64, n: usize) -> SampleCollection {
    let samples = DatasetSpec::explicit(6_000, n, 0.015, seed).generate().unwrap();
    SampleCollection::from_sorted_sets(samples).unwrap()
}

/// Comma-separated usize list from the environment, falling back to
/// `default`. The CI `dist-matrix` job sets `GAS_DIST_RANKS` /
/// `GAS_DIST_REPLICATION` to pin one grid configuration per matrix entry;
/// local runs cover the full default matrix.
fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("{name} must be a usize list")))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

#[test]
fn distributed_equals_shared_memory_across_configurations() {
    let collection = workload(1, 14);
    let reference = jaccard_exact_pairwise(&collection);
    for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 2, 5, 8, 12]) {
        for batches in [1usize, 4] {
            for replication in env_usize_list("GAS_DIST_REPLICATION", &[1, 2]) {
                let config = SimilarityConfig::with_batches(batches).with_replication(replication);
                let shared = similarity_at_scale(&collection, &config).unwrap();
                let distributed = similarity_at_scale_distributed(
                    &collection,
                    &config,
                    ranks,
                    &Machine::laptop(),
                )
                .unwrap();
                assert_eq!(
                    shared.intersections(),
                    reference.intersections(),
                    "shared-memory mismatch (batches={batches})"
                );
                assert_eq!(
                    distributed.result.intersections(),
                    reference.intersections(),
                    "distributed mismatch (ranks={ranks}, batches={batches}, c={replication})"
                );
                assert_eq!(distributed.result.cardinalities(), reference.cardinalities());
                assert_eq!(
                    distributed.active_ranks, ranks,
                    "rectangular grids must use every rank (ranks={ranks}, c={replication})"
                );
            }
        }
    }
}

#[test]
fn every_rank_owns_output_and_summa_chunks() {
    // Non-square rank counts used to idle p − s²·c ranks; the rectangular
    // grid must hand every rank an output block and owned SUMMA chunks.
    for p in env_usize_list("GAS_DIST_RANKS", &[4, 6, 8, 12]) {
        for replication in env_usize_list("GAS_DIST_REPLICATION", &[1, 2]) {
            let out = Runtime::new(p)
                .run(|ctx| {
                    let ata = ctx.expect_ok(
                        "DistAta grid setup",
                        DistAta::new(ctx.world(), 48, replication),
                    );
                    let grid = ata.grid().clone();
                    let coords = ctx.expect_ok("grid coordinates", grid.coords_of(ctx.rank()));
                    let owned_right =
                        (0..ata.steps_per_layer()).filter(|t| t % grid.rows() == coords[0]).count();
                    let owned_left =
                        (0..ata.steps_per_layer()).filter(|t| t % grid.cols() == coords[1]).count();
                    (
                        ata.active_ranks(),
                        ata.my_col_range().len(),
                        ata.my_row_range().len(),
                        owned_right,
                        owned_left,
                    )
                })
                .unwrap();
            for (rank, (active, ncols, nrows, owned_r, owned_l)) in out.results.iter().enumerate() {
                let ctx = format!("p={p}, c={replication}, rank={rank}");
                assert_eq!(*active, p, "{ctx}");
                assert!(*ncols > 0, "{ctx}: no output columns");
                assert!(*nrows > 0, "{ctx}: no output rows");
                assert!(*owned_r > 0, "{ctx}: no right SUMMA chunks");
                assert!(*owned_l > 0, "{ctx}: no left SUMMA chunks");
            }
        }
    }
}

#[test]
fn skewed_bigsi_like_data_is_handled_exactly() {
    let spec = DatasetSpec::bigsi_like(0.0002).with_seed(9);
    let samples = spec.generate().unwrap();
    let collection = SampleCollection::from_sorted_sets(samples).unwrap();
    let reference = jaccard_exact_pairwise(&collection);
    let distributed = similarity_at_scale_distributed(
        &collection,
        &SimilarityConfig::with_batches(3),
        6,
        &Machine::laptop(),
    )
    .unwrap();
    assert_eq!(distributed.result.intersections(), reference.intersections());
    assert!(distributed.result.similarity().is_symmetric(1e-12));
}

#[test]
fn communication_per_rank_decreases_with_more_ranks() {
    // The replicated filter vector is a constant per-rank overhead (the
    // paper's implementation collects `f` on all processors), so this
    // check isolates the matrix-product communication by disabling the
    // filter: the SUMMA broadcast volume per rank must shrink as the grid
    // grows.
    let collection = workload(2, 64);
    let config =
        SimilarityConfig { use_zero_row_filter: false, ..SimilarityConfig::with_batches(2) };
    let mut per_rank = Vec::new();
    for ranks in [4usize, 16] {
        let summary =
            similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop())
                .unwrap();
        per_rank.push(summary.aggregate.total_bytes_sent / ranks as u64);
    }
    assert!(
        per_rank[1] < per_rank[0],
        "per-rank product communication should shrink with more ranks: {per_rank:?}"
    );
}

#[test]
fn allreduce_baseline_matches_results_but_not_communication() {
    let collection = workload(3, 100);
    let config = SimilarityConfig::with_batches(3);
    let ranks = 4;
    let ours =
        similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop()).unwrap();
    let baseline =
        allreduce_jaccard_distributed(&collection, &config, ranks, &Machine::laptop()).unwrap();
    assert_eq!(ours.result.intersections(), baseline.result.intersections());
    assert!(
        baseline.aggregate.total_bytes_sent > ours.aggregate.total_bytes_sent,
        "the allreduce pattern must move more data ({} vs {})",
        baseline.aggregate.total_bytes_sent,
        ours.aggregate.total_bytes_sent
    );
}

#[test]
fn cost_projection_is_positive_and_scales_with_problem_size() {
    let small = workload(4, 8);
    let large = workload(4, 32);
    let machine = Machine::stampede2_knl();
    let model = machine.cost_model().unwrap();
    let config = SimilarityConfig::default();
    let t_small = similarity_at_scale_distributed(&small, &config, 4, &machine)
        .unwrap()
        .projected_time(&model);
    let t_large = similarity_at_scale_distributed(&large, &config, 4, &machine)
        .unwrap()
        .projected_time(&model);
    assert!(t_small > 0.0);
    assert!(t_large > t_small, "larger problems must project to longer times");
}

/// The ledger's smoke fixture: 400 000 k-mer rows of which about one in
/// thirty survives the filter.
fn hypersparse(seed: u64) -> SampleCollection {
    let samples = DatasetSpec::explicit(400_000, 32, 1e-3, seed).generate().unwrap();
    SampleCollection::from_sorted_sets(samples).unwrap()
}

/// `hypersparse(seed)` below row 160 000, plus about fifty rows in
/// `[240 000, 241 000)`, over a 400 000-row universe: in five batches the
/// fourth keeps one word row — every SUMMA chunk but one is empty on any
/// grid with `T · c > 1` — and the fifth keeps none.
fn hypersparse_with_a_sparse_tail(seed: u64) -> SampleCollection {
    let samples = DatasetSpec::explicit(400_000, 32, 1e-3, seed).generate().unwrap();
    let samples = samples
        .into_iter()
        .enumerate()
        .map(|(j, s)| {
            let mut s: Vec<u64> = s.into_iter().filter(|&v| v < 160_000).collect();
            s.extend([240_000 + 3 * (j as u64 % 20), 240_500 + j as u64]);
            s
        })
        .collect();
    SampleCollection::from_sorted_sets(samples).unwrap().with_universe(400_000).unwrap()
}

#[test]
fn hypersparse_batches_equal_shared_memory_with_and_without_the_filter() {
    let cases = [(hypersparse(24), vec![2usize, 5]), (hypersparse_with_a_sparse_tail(24), vec![5])];
    let plan = BatchPlan::from_config(&SimilarityConfig::with_batches(5), &cases[1].0, 1).unwrap();
    let survivors: Vec<usize> = plan
        .iter()
        .map(|(lo, hi)| {
            let values = (0..cases[1].0.n()).map(|s| cases[1].0.batch_values(s, lo, hi));
            let mut rows: Vec<u64> = values.flatten().copied().collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len()
        })
        .collect();
    assert!(survivors[3] > 0 && survivors[3] <= 64 && survivors[4] == 0, "{survivors:?}");
    for (collection, batch_counts) in &cases {
        let exact = jaccard_exact_pairwise(collection);
        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4, 6, 8, 9, 12]) {
            for replication in env_usize_list("GAS_DIST_REPLICATION", &[1, 2]) {
                for &batches in batch_counts {
                    for use_zero_row_filter in [true, false] {
                        let config = SimilarityConfig {
                            use_zero_row_filter,
                            ..SimilarityConfig::with_batches(batches).with_replication(replication)
                        };
                        let distributed = similarity_at_scale_distributed(
                            collection,
                            &config,
                            ranks,
                            &Machine::laptop(),
                        )
                        .unwrap();
                        let ctx = format!(
                            "m={}, ranks={ranks}, c={replication}, batches={batches}, \
                             filter={use_zero_row_filter}",
                            collection.m()
                        );
                        assert_eq!(distributed.result, exact, "{ctx}");
                    }
                }
            }
        }
    }
}

#[test]
fn shared_driver_equals_the_oracle_and_the_distributed_driver_on_both_filter_branches() {
    // `workload`'s values over a universe 2 700 times wider: every batch
    // has more than 64 bitmap words per entry, so both drivers' filter
    // takes the sorted-survivor branch. The sparse tail has a batch that
    // keeps one word row and a batch that keeps none.
    let far = workload(3, 12).with_universe(16_000_000).unwrap();
    let tail = hypersparse_with_a_sparse_tail(24);
    for (name, collection, batches) in [("far universe", &far, 3usize), ("sparse tail", &tail, 5)] {
        let plan = BatchPlan::from_config(&SimilarityConfig::with_batches(batches), collection, 1)
            .unwrap();
        if name == "far universe" {
            for (lo, hi) in plan.iter() {
                let entries = collection.batch_nnz(lo, hi);
                assert!((hi - lo).div_ceil(64) > 64 * entries, "[{lo}, {hi}): {entries} entries");
            }
        }
        let exact = jaccard_exact_pairwise(collection);
        for (use_zero_row_filter, use_bitmask) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let config = SimilarityConfig {
                use_zero_row_filter,
                use_bitmask,
                ..SimilarityConfig::with_batches(batches)
            };
            let ctx = format!("{name}, filter={use_zero_row_filter}, mask={use_bitmask}");
            let shared = similarity_at_scale(collection, &config).unwrap();
            assert_eq!(shared, exact, "{ctx}");
            let distributed =
                similarity_at_scale_distributed(collection, &config, 4, &Machine::laptop())
                    .unwrap();
            assert_eq!(distributed.result, exact, "{ctx}, ranks=4");
        }
    }
}

#[test]
fn a_batch_over_a_huge_universe_filters_without_a_universe_sized_bitmap() {
    // One batch of 2⁵⁰ + 6 rows: its filter bitmap would be 2⁴⁴ words
    // (128 TiB). The ranks must allgather the four observed rows, not
    // OR-allreduce a bitmap.
    let collection = SampleCollection::from_sorted_sets(vec![
        vec![1, 1 << 50],
        vec![1 << 50],
        vec![3, (1 << 50) + 5],
    ])
    .unwrap();
    let config = SimilarityConfig::with_batches(1);
    assert!(config.use_zero_row_filter);
    let exact = jaccard_exact_pairwise(&collection);
    assert_eq!(similarity_at_scale(&collection, &config).unwrap(), exact);
    for ranks in [4usize, 6] {
        let distributed =
            similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop())
                .unwrap();
        assert_eq!(distributed.result, exact, "ranks={ranks}");
    }
}

#[test]
fn the_last_batch_of_a_universe_near_u64_max_is_filtered_and_counted() {
    // m = u64::MAX in 1000 batches: the last one starts 0.1 % below m,
    // where `lo + batch_rows` passes 2⁶⁴. It holds both samples' one
    // entry each, u64::MAX − 1; the first batch holds row 0.
    let collection =
        SampleCollection::from_sorted_sets(vec![vec![u64::MAX - 1], vec![0, u64::MAX - 1]])
            .unwrap();
    assert_eq!(collection.m(), u64::MAX);
    let config = SimilarityConfig::with_batches(1000);
    assert!(config.use_zero_row_filter);
    let exact = jaccard_exact_pairwise(&collection);
    for ranks in [1usize, 4] {
        let distributed =
            similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop())
                .unwrap();
        assert_eq!(distributed.result, exact, "ranks={ranks}");
    }
    assert_eq!(similarity_at_scale(&collection, &config).unwrap(), exact);
}

/// The paper's mid-fill regime, the one `allpairs_dist` runs, at a size
/// the debug test budget holds: 256 samples over 400 000 rows at density
/// d = 2·10⁻⁴, about 80 values a sample. A row survives the zero-row
/// filter with probability 1 − (1 − d)²⁵⁶ ≈ 0.050, so a kept row holds a
/// given sample's value with probability d / 0.050 ≈ 1/250, and a packed
/// word of 64 kept rows is stored with probability
/// 1 − (1 − 1/250)⁶⁴ ≈ 0.23: the word fill of `allpairs_dist`'s batches.
/// Its ≈ 20 000 kept rows are ≈ 160 word rows in each of two batches, so
/// a 128-column block spans five 32 KiB tiles (32 word rows of 128
/// words), and a layer's half of a batch at c = 2 three.
fn mid_fill(seed: u64) -> SampleCollection {
    let samples = DatasetSpec::explicit(400_000, 256, 2e-4, seed).generate().unwrap();
    SampleCollection::from_sorted_sets(samples).unwrap()
}

#[test]
fn mid_fill_batches_equal_the_pairwise_oracle_on_every_grid() {
    // The ledger's `allpairs_dist` check compares with the one-rank
    // driver, whose triangle at this fill runs the same tiled body as the
    // SUMMA blocks; this compares every grid with the brute-force oracle.
    let collection = mid_fill(55);
    let config = SimilarityConfig::with_batches(2);
    assert!(config.use_zero_row_filter);
    let n = collection.n();
    let plan = BatchPlan::from_config(&config, &collection, 1).unwrap();
    for (lo, hi) in plan.iter() {
        // The word fill derived above, measured on each filtered batch:
        // above 1/5, so the kernel's guard keeps its blocks on tiles.
        let mut kept: Vec<u64> =
            (0..n).flat_map(|s| collection.batch_values(s, lo, hi)).copied().collect();
        kept.sort_unstable();
        kept.dedup();
        let words: usize = (0..n)
            .map(|s| {
                let values = collection.batch_values(s, lo, hi);
                let mut words: Vec<usize> =
                    values.iter().map(|v| kept.binary_search(v).unwrap() / 64).collect();
                words.dedup();
                words.len()
            })
            .sum();
        let word_rows = kept.len().div_ceil(64);
        let fill = words as f64 / (word_rows * n) as f64;
        assert!((0.21..0.25).contains(&fill), "[{lo}, {hi}): word fill {fill}");
        assert!(word_rows > 64, "[{lo}, {hi}): {word_rows} word rows");
    }
    let exact = jaccard_exact_pairwise(&collection);
    // One rank's triangle, and 128-column blocks on 2 × 2 × 1 and 2 × 2 × 2.
    for (ranks, grid) in [(1, [1, 1, 1]), (4, [2, 2, 1]), (8, [2, 2, 2])] {
        let config = config.clone().with_replication(grid[2]);
        let run = similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop())
            .unwrap();
        let ctx = format!("p = {ranks}, c = {}", grid[2]);
        assert_eq!(run.grid_dims, grid, "{ctx}");
        assert_eq!(run.result, exact, "{ctx}");
    }
}

/// `body`'s value, run on a helper thread that is waited for at most
/// `secs` seconds: a run that hangs fails the test instead.
fn within<R: Send + 'static>(secs: u64, body: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(body()));
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung for {secs} s"),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("the body panicked"),
    }
}

#[test]
fn a_batch_too_wide_for_a_wire_block_is_refused_typed_by_both_drivers() {
    // The huge-universe fixture with the filter off: its one batch packs
    // as 2⁴⁴ + 1 word rows. Every rank refuses it before packing, with the
    // bound a SUMMA block's 32-bit word-row field sets. One rank used to
    // abort on a counter per word row, and p = 4 hung, its chunk owners
    // refusing while their peers waited in a broadcast. Each run is waited
    // for on a helper thread, so such a hang fails the test instead.
    let run = |ranks: Option<usize>| {
        within(60, move || {
            let collection = SampleCollection::from_sorted_sets(vec![
                vec![1, 1 << 50],
                vec![1 << 50],
                vec![3, (1 << 50) + 5],
            ])
            .unwrap();
            let config = SimilarityConfig {
                use_zero_row_filter: false,
                ..SimilarityConfig::with_batches(1)
            };
            let err = match ranks {
                None => similarity_at_scale(&collection, &config).map(drop),
                Some(p) => {
                    similarity_at_scale_distributed(&collection, &config, p, &Machine::laptop())
                        .map(drop)
                }
            };
            err.unwrap_err().to_string()
        })
    };
    let shared = run(None);
    assert!(shared.contains("a SUMMA chunk with 17592186044417 word rows exceeds"), "{shared}");
    for ranks in [4usize, 6] {
        let err = run(Some(ranks));
        assert!(err.contains("word rows exceeds the 4294967295"), "ranks={ranks}: {err}");
    }
}

/// `(total_flops, max_flops, total_bytes_sent)` over a schedule's ranks,
/// as `CostReport::aggregate` sums them.
fn scheduled_totals(schedule: &[schedule::Counters]) -> (u64, u64, u64) {
    let flops = schedule.iter().map(|counters| counters.flops);
    let bytes = schedule.iter().map(|counters| counters.bytes_sent).sum();
    (flops.clone().sum(), flops.max().unwrap_or(0), bytes)
}

#[test]
fn flop_charge_and_wire_bytes_are_pinned_across_the_grid() {
    // Two batches with the filter on, on the grids from p = 1 to p = 9 at
    // c ∈ {1, 2}: most of the flops are the γ charge `DistAta` books per
    // SUMMA step — the Gustavson product count `Σ_k nnz_A(k)·nnz_B(k)` of
    // each block — and the rest the reductions' element counts: none may
    // move with the kernel body that multiplies a block.
    let collection = workload(1, 32);
    for (p, c) in [(1, 1), (4, 1), (4, 2), (6, 1), (6, 2), (8, 1), (8, 2), (9, 1)] {
        let config = SimilarityConfig::with_batches(2).with_replication(c);
        assert!(config.use_zero_row_filter);
        let summary =
            similarity_at_scale_distributed(&collection, &config, p, &Machine::laptop()).unwrap();
        assert_eq!(summary.grid_dims[2], c, "p={p}: c={c} is a divisor");
        let plan = BatchPlan::from_config(&config, &collection, p).unwrap();
        let scheduled = paper_schedule(&collection, summary.grid_dims, &plan, true);
        let got = summary.aggregate;
        assert_eq!(
            (got.total_flops, got.max_flops, got.total_bytes_sent),
            scheduled_totals(&scheduled),
            "p={p}, c={c}"
        );
        assert_schedule(&summary.reports, &scheduled, &format!("p={p}, c={c}"));
    }
}

#[test]
fn wire_bytes_are_the_filter_bitmaps_plus_the_narrow_blocks() {
    // p = 4, c = 1 is the 2 × 2 × 1 grid: two SUMMA steps per batch, each
    // block sent to the one other rank of its row or column communicator,
    // after each batch's OR-allreduce of its ⌈batch_rows/64⌉-word bitmap.
    let collection = hypersparse(25);
    let config = SimilarityConfig::with_batches(2);
    let summary =
        similarity_at_scale_distributed(&collection, &config, 4, &Machine::laptop()).unwrap();
    assert_eq!(summary.grid_dims, [2, 2, 1]);
    let plan = BatchPlan::from_config(&config, &collection, 4).unwrap();
    let scheduled = paper_schedule(&collection, [2, 2, 1], &plan, true);
    assert_eq!(summary.aggregate.total_bytes_sent, scheduled_totals(&scheduled).2);
    assert_schedule(&summary.reports, &scheduled, "hypersparse(25), 2x2x1 grid, 2 batches");
}

#[test]
fn every_rank_counter_equals_the_schedule() {
    // Every counter of every rank, on the grids the driver picks for
    // p ∈ {1, 2, 3, 4, 6, 8, 9, 12} and c ∈ {1, 2, 3} (c is clamped to a
    // divisor of p; each grid runs once): the bitmap filter (`workload`),
    // the sorted-survivor filter (its values over a universe 2 700 times
    // wider), and empty SUMMA chunks and an empty batch (the sparse tail),
    // each with the filter on and off.
    let far = workload(3, 12).with_universe(16_000_000).unwrap();
    let fixtures = [
        ("workload(1, 32)", workload(1, 32), &[1usize, 3][..]),
        ("far universe", far, &[1, 3]),
        ("sparse tail", hypersparse_with_a_sparse_tail(24), &[5]),
    ];
    let mut grids = Vec::new();
    for p in env_usize_list("GAS_DIST_RANKS", &[1, 2, 3, 4, 6, 8, 9, 12]) {
        for c in env_usize_list("GAS_DIST_REPLICATION", &[1, 2, 3]) {
            let grid = DistAta::select_grid(p, c).unwrap();
            let dims = [grid.rows(), grid.cols(), grid.layers()];
            if !grids.contains(&(p, dims)) {
                grids.push((p, dims));
            }
        }
    }
    for (name, collection, batch_counts) in &fixtures {
        for &(p, dims) in &grids {
            for &batches in *batch_counts {
                for use_zero_row_filter in [true, false] {
                    let config = SimilarityConfig {
                        use_zero_row_filter,
                        ..SimilarityConfig::with_batches(batches).with_replication(dims[2])
                    };
                    let summary =
                        similarity_at_scale_distributed(collection, &config, p, &Machine::laptop())
                            .unwrap();
                    assert_eq!(summary.grid_dims, dims);
                    let plan = BatchPlan::from_config(&config, collection, p).unwrap();
                    let scheduled = paper_schedule(collection, dims, &plan, use_zero_row_filter);
                    let ctx = format!(
                        "{name}, {}x{}x{} grid, {batches} batches, filter={use_zero_row_filter}",
                        dims[0], dims[1], dims[2]
                    );
                    assert_schedule(&summary.reports, &scheduled, &ctx);
                }
            }
        }
    }
}
