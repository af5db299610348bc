//! Integration tests of the simulated-distributed driver: for every rank
//! count, batch count and replication factor, the distributed result must
//! equal the shared-memory result and the brute-force reference bit for
//! bit, and the communication counters must behave as the paper's
//! analysis predicts.

use genomeatscale::core::algorithm::{similarity_at_scale, similarity_at_scale_distributed};
use genomeatscale::core::baselines::allreduce_jaccard_distributed;
use genomeatscale::core::batch::BatchPlan;
use genomeatscale::core::mask::{prepare_batch, PreparedBatch};
use genomeatscale::dstsim::runtime::RankCtx;
use genomeatscale::genomics::datasets::DatasetSpec;
use genomeatscale::prelude::*;
use genomeatscale::sparse::dist::filter::dist_row_filter;
use genomeatscale::sparse::dist::DistAta;

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
    let survivors: Vec<u64> = plan
        .iter()
        .map(|(lo, hi)| {
            let columns = cases[1].0.batch_columns_all(lo, hi);
            let (_, filter) = prepare_batch((hi - lo) as usize, &columns, true, true).unwrap();
            filter.num_nonzero_rows() as u64
        })
        .collect();
    assert!(survivors[3] > 0 && survivors[3] <= 64 && survivors[4] == 0, "{survivors:?}");
    for (collection, batch_counts) in &cases {
        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4, 6, 8, 9, 12]) {
            for replication in env_usize_list("GAS_DIST_REPLICATION", &[1, 2]) {
                for &batches in batch_counts {
                    for use_zero_row_filter in [true, false] {
                        let config = SimilarityConfig {
                            use_zero_row_filter,
                            ..SimilarityConfig::with_batches(batches).with_replication(replication)
                        };
                        let shared = similarity_at_scale(collection, &config).unwrap();
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
                        let result = &distributed.result;
                        assert_eq!(result.intersections(), shared.intersections(), "{ctx}");
                        assert_eq!(result.cardinalities(), shared.cardinalities(), "{ctx}");
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
            for ranks in [1usize, 4] {
                let distributed =
                    similarity_at_scale_distributed(collection, &config, ranks, &Machine::laptop())
                        .unwrap();
                assert_eq!(distributed.result, shared, "{ctx}, ranks={ranks}");
            }
        }
    }
}

#[test]
fn a_batch_over_a_huge_universe_filters_without_a_universe_sized_bitmap() {
    // One batch of 2⁵⁰ + 6 rows: its filter bitmap would be 2⁴⁴ words
    // (128 TiB). The shared driver sorts the four observed rows; the
    // distributed one must allgather them, not OR-allreduce a bitmap.
    let collection = SampleCollection::from_sorted_sets(vec![
        vec![1, 1 << 50],
        vec![1 << 50],
        vec![3, (1 << 50) + 5],
    ])
    .unwrap();
    let config = SimilarityConfig::with_batches(1);
    assert!(config.use_zero_row_filter);
    let shared = similarity_at_scale(&collection, &config).unwrap();
    assert_eq!(shared, jaccard_exact_pairwise(&collection));
    for ranks in [1usize, 4, 6] {
        let distributed =
            similarity_at_scale_distributed(&collection, &config, ranks, &Machine::laptop())
                .unwrap();
        assert_eq!(distributed.result, shared, "ranks={ranks}");
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
    // as 2⁴⁴ + 1 word rows. Both drivers refuse it before packing, with the
    // bound a SUMMA block's 32-bit word-row field sets. The shared driver
    // used to abort on a counter per word row, and the distributed one
    // hung at p = 4, its chunk owners refusing while their peers waited in
    // a broadcast. Each run is waited for on a helper thread, so such a
    // hang fails the test instead.
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
    assert_eq!(run(Some(1)), shared);
    for ranks in [4usize, 6] {
        let err = run(Some(ranks));
        assert!(err.contains("word rows exceeds the 4294967295"), "ranks={ranks}: {err}");
    }
}

#[test]
fn flop_charge_and_wire_bytes_are_pinned_across_the_grid() {
    // (p, c, total_flops, max_flops, total_bytes_sent). Most of the flops
    // are the γ charge `DistAta` books per SUMMA step — the Gustavson
    // product count `Σ_k nnz_A(k)·nnz_B(k)` of each block — and the rest
    // the reductions' element counts: none may move with the kernel body
    // that multiplies a block.
    const PINNED: [(usize, usize, u64, u64, u64); 8] = [
        (1, 1, 32_294, 32_294, 0),
        (4, 1, 32_954, 8_430, 39_960),
        (4, 2, 33_978, 8_996, 41_416),
        (6, 1, 33_394, 5_777, 62_916),
        (6, 2, 34_418, 6_125, 63_440),
        (8, 1, 33_834, 4_558, 81_872),
        (8, 2, 34_858, 4_829, 68_056),
        (9, 1, 34_054, 4_189, 83_736),
    ];
    let collection = workload(1, 32);
    for (p, c, total_flops, max_flops, bytes) in PINNED {
        let config = SimilarityConfig::with_batches(2).with_replication(c);
        assert!(config.use_zero_row_filter);
        let summary =
            similarity_at_scale_distributed(&collection, &config, p, &Machine::laptop()).unwrap();
        assert_eq!(summary.grid_dims[2], c, "p={p}: c={c} is a divisor");
        let got = summary.aggregate;
        assert_eq!(
            (got.total_flops, got.max_flops, got.total_bytes_sent),
            (total_flops, max_flops, bytes),
            "p={p}, c={c}"
        );
    }
}

/// Bytes all `p` ranks send while each runs `f`.
fn bytes_sent(p: usize, f: impl Fn(&mut RankCtx) + Send + Sync) -> u64 {
    Runtime::new(p).run(f).unwrap().aggregate().total_bytes_sent
}

#[test]
fn wire_bytes_are_the_filter_bitmaps_plus_the_narrow_blocks() {
    // p = 4, c = 1 is the 2 × 2 × 1 grid: two SUMMA steps per batch, each
    // block sent to the one other rank of its row or column communicator.
    let (p, r, q, steps) = (4usize, 2usize, 2usize, 2usize);
    let collection = hypersparse(25);
    let n = collection.n();
    let config = SimilarityConfig::with_batches(2);
    let summary =
        similarity_at_scale_distributed(&collection, &config, p, &Machine::laptop()).unwrap();
    assert_eq!(summary.grid_dims, [r, q, 1]);
    // Everything but the batches: grid setup, the final reductions, the
    // gather of the output blocks.
    let mut expected = bytes_sent(p, |ctx| {
        let ata = DistAta::new(ctx.world(), n, 1).unwrap();
        let (mut acc, mut card) = (ata.new_accumulator(), ata.new_cardinalities());
        ata.finalize(&mut acc, &mut card).unwrap();
        ata.gather_full(ctx.world(), &acc).unwrap();
    });
    let block =
        |total: usize, parts: usize, idx: usize| (idx * total / parts)..((idx + 1) * total / parts);
    let plan = BatchPlan::from_config(&config, &collection, p).unwrap();
    for (lo, hi) in plan.iter() {
        let batch_rows = (hi - lo) as usize;
        // The OR-allreduce moves ⌈batch_rows/64⌉ words whatever is set.
        expected += bytes_sent(p, |ctx| {
            dist_row_filter(ctx.world(), batch_rows, &[]).unwrap();
        });
        let columns = collection.batch_columns_all(lo, hi);
        let (prepared, _) = prepare_batch(batch_rows, &columns, true, true).unwrap();
        let PreparedBatch::Masked(packed) = prepared else { panic!("masking was asked for") };
        for t in 0..steps {
            let chunk = block(packed.word_rows(), steps, t);
            // 16 header bytes, 4 per offset and per index, 8 per word:
            // the right operand's offsets run over the chunk's word rows,
            // the left operand's over its samples.
            let nbytes = |samples: std::ops::Range<usize>, major: usize| {
                let cols: Vec<usize> = samples.collect();
                let words = packed
                    .select_cols(&cols)
                    .unwrap()
                    .select_word_rows(chunk.clone())
                    .unwrap()
                    .nnz_words();
                (16 + 4 * (major + 1 + words) + 8 * words) as u64
            };
            for j in 0..q {
                expected += (r as u64 - 1) * nbytes(block(n, q, j), chunk.len());
            }
            for i in 0..r {
                let samples = block(n, r, i);
                expected += (q as u64 - 1) * nbytes(samples.clone(), samples.len());
            }
        }
    }
    assert_eq!(summary.aggregate.total_bytes_sent, expected);
}
