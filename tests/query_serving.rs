//! Distributed query-serving equivalence: the band-sharded engine must
//! answer bit-identically to the single-rank engine for every rank count
//! of the CI dist-matrix grid (`GAS_DIST_RANKS` pins one configuration
//! per CI job, `GAS_DIST_SEGMENTS` one uncompacted segment count; local
//! runs cover the full default matrix), the keyed cross-segment
//! exchange must ship exactly the rows the retained per-segment
//! reference ships, and a mixed placement (replicated and sharded
//! segments in one exchange) must answer bit-identically to both — and,
//! when `plan_placement` prices it against the paper machine's
//! `CostModel` from probe heat on a skewed fixture, move fewer wire
//! bytes than either pure placement.

use genomeatscale::dstsim::RankFaults;
use genomeatscale::index::dist::{band_shard, sample_shard, SignatureShard};
use genomeatscale::index::IndexError;
use genomeatscale::prelude::*;
use proptest::prelude::*;

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().unwrap_or_else(|_| panic!("{name} must be a usize list")))
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn family_workload() -> SampleCollection {
    let mut samples = Vec::new();
    for f in 0..5u64 {
        let core: Vec<u64> = (f * 40_000..f * 40_000 + 400).collect();
        for m in 0..6u64 {
            let mut s = core.clone();
            s.extend(f * 40_000 + 20_000 + m * 30..f * 40_000 + 20_000 + m * 30 + 30);
            samples.push(s);
        }
    }
    SampleCollection::from_sets(samples).unwrap()
}

#[test]
fn sharded_answers_equal_single_rank_answers_across_grid() {
    let collection = family_workload();
    let config = IndexConfig::default().with_signature_len(128).with_threshold(0.4);
    let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
    // Queries: every fifth sample verbatim, one perturbation, one empty.
    let mut queries: Vec<Vec<u64>> =
        (0..collection.n()).step_by(5).map(|i| collection.sample(i).to_vec()).collect();
    queries.push(collection.sample(3).iter().copied().step_by(3).collect());
    queries.push(Vec::new());

    for rerank in [false, true] {
        let opts = QueryOptions { top_k: 6, rerank_exact: rerank, ..Default::default() };
        let engine = QueryEngine::snapshot_with_collection(index.clone(), &collection);
        let reference = engine.query_batch(&queries, &opts).unwrap();

        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 2, 4, 6, 8]) {
            let out = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "dist_query_reader_batch",
                        dist_query_reader_batch(ctx.world(), &index, Some(&collection), q, &opts),
                    )
                })
                .unwrap();
            for (rank, answers) in out.results.iter().enumerate() {
                assert_eq!(
                    answers, &reference,
                    "rank {rank}/{ranks} (rerank={rerank}): sharded answers diverge"
                );
            }
        }
    }
}

#[test]
fn every_rank_owns_bands_of_real_indexes_on_ci_grids() {
    // Sharded serving only balances if each rank owns part of the bucket
    // space of an *actual built index* (not a hypothetical band count)
    // for every grid of the dist-matrix.
    let collection = family_workload();
    for threshold in [0.3, 0.4, 0.5] {
        let config = IndexConfig::default().with_signature_len(128).with_threshold(threshold);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let bands = index.params().bands();
        for ranks in env_usize_list("GAS_DIST_RANKS", &[4, 6, 8, 12]) {
            assert!(
                bands >= ranks,
                "default-sized indexes must have at least one band per rank \
                 (threshold={threshold}: {bands} bands < {ranks} ranks)"
            );
            let mut owned = vec![0usize; ranks];
            for band in 0..bands {
                owned[band_shard(band, ranks)] += 1;
            }
            assert!(
                owned.iter().all(|&c| c > 0),
                "ranks without bands on p={ranks}, threshold={threshold}: {owned:?}"
            );
        }
    }
}

#[test]
fn signature_sharding_splits_storage_across_the_grid_for_both_signers() {
    // Each rank of the dist-matrix grid must store ~n/p signature rows
    // (never the replicated matrix) while answering bit-identically to
    // the single-rank engine, under both signers.
    let collection = family_workload();
    let queries: Vec<Vec<u64>> =
        (0..collection.n()).step_by(7).map(|i| collection.sample(i).to_vec()).collect();
    for signer in [SignerKind::KMins, SignerKind::Oph] {
        let config =
            IndexConfig::default().with_signature_len(128).with_threshold(0.4).with_signer(signer);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let opts = QueryOptions { top_k: 6, rerank_exact: true, ..Default::default() };
        let reference = QueryEngine::snapshot_with_collection(index.clone(), &collection)
            .query_batch(&queries, &opts)
            .unwrap();
        for ranks in env_usize_list("GAS_DIST_RANKS", &[4, 6, 8]) {
            let out = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "dist_query_reader_batch_stats",
                        dist_query_reader_batch_stats(
                            ctx.world(),
                            &index,
                            Some(&collection),
                            q,
                            &opts,
                        ),
                    )
                })
                .unwrap();
            let mut total_rows = 0usize;
            for (rank, (answers, stats)) in out.results.iter().enumerate() {
                assert_eq!(
                    answers, &reference,
                    "rank {rank}/{ranks} ({signer}): sharded answers diverge"
                );
                // ~n/p rows per rank, never the whole matrix.
                assert!(
                    stats.shard_rows <= index.n_rows().div_ceil(ranks),
                    "rank {rank}/{ranks}: {} rows exceed the ⌈n/p⌉ shard",
                    stats.shard_rows
                );
                assert_eq!(stats.shard_bytes, stats.shard_rows * 128 * 8);
                assert_eq!(stats.replicated_bytes, index.n_rows() * 128 * 8);
                if ranks > 1 {
                    assert!(
                        stats.shard_bytes * 2 < stats.replicated_bytes,
                        "rank {rank}/{ranks}: shard is not a real split"
                    );
                }
                total_rows += stats.shard_rows;
            }
            // The shards partition the matrix: rows sum to n exactly.
            assert_eq!(total_rows, index.n_rows(), "p={ranks} ({signer})");
        }
    }
}

#[test]
fn signature_shards_cover_every_sample_exactly_once_on_ci_grids() {
    let collection = family_workload();
    let index = IndexOptions::from_config(IndexConfig::default().with_signature_len(64))
        .build_index(&collection)
        .unwrap();
    let segment = index.segments()[0].clone();
    for ranks in env_usize_list("GAS_DIST_RANKS", &[4, 6, 8, 12]) {
        let shards: Vec<SignatureShard> =
            (0..ranks).map(|r| SignatureShard::for_segment(&segment, r, ranks)).collect();
        for id in 0..index.n_rows() {
            let owner = sample_shard(id, ranks);
            assert_eq!(shards.iter().filter(|s| s.owns(id as u32)).count(), 1);
            assert_eq!(shards[owner].row(id as u32), segment.signature(id).values());
        }
    }
}

/// Grow `collection` through the writer lifecycle as `segments`
/// near-equal commits, tombstoning each of `deletes` as soon as it is
/// committed — the uncompacted multi-segment snapshot the dist-matrix
/// serves.
fn grow_segmented(
    collection: &SampleCollection,
    config: &IndexConfig,
    segments: usize,
    deletes: &[u32],
) -> IndexWriter {
    let n = collection.n();
    let mut writer = IndexOptions::from_config(*config).open_writer().unwrap();
    let mut start = 0usize;
    for s in 0..segments {
        let end = start + (n - start) / (segments - s);
        for i in start..end {
            writer.add(collection.names()[i].clone(), collection.sample(i).to_vec()).unwrap();
        }
        writer.commit().unwrap();
        for &id in deletes {
            if id < writer.id_bound() && !writer.reader().is_deleted(id) {
                writer.delete(id).unwrap();
            }
        }
        writer.commit().unwrap();
        start = end;
    }
    writer
}

#[test]
fn segmented_reader_serves_bit_identically_across_the_grid() {
    // The lifecycle acceptance property, on the CI dist-matrix grid: an
    // incrementally grown index (`GAS_DIST_SEGMENTS` commits, two
    // deletes) must answer (1) bit-identically between the single-rank
    // multi-segment reader and the keyed sharded distributed path on
    // every rank count, and (2) bit-identically to a fresh monolithic
    // rebuild over the final live corpus (dense ids remapped through the
    // sorted live-id list, a strictly monotone bijection) — before and
    // after compaction, under both signers.
    let collection = family_workload();
    let n = collection.n();
    let deletes: Vec<u32> = vec![3, 17];
    let mut queries: Vec<Vec<u64>> =
        (0..n).step_by(6).map(|i| collection.sample(i).to_vec()).collect();
    queries.push(collection.sample(2).iter().copied().step_by(3).collect());
    queries.push(Vec::new());

    for signer in [SignerKind::KMins, SignerKind::Oph] {
        let config =
            IndexConfig::default().with_signature_len(128).with_threshold(0.4).with_signer(signer);
        for segments in env_usize_list("GAS_DIST_SEGMENTS", &[1, 3, 7]) {
            let mut writer = grow_segmented(&collection, &config, segments, &deletes);

            // The fresh-rebuild reference over the live corpus.
            let reader = writer.reader();
            let live = reader.live_ids();
            let final_collection = SampleCollection::from_sorted_sets(
                live.iter().map(|&id| collection.sample(id as usize).to_vec()).collect(),
            )
            .unwrap();
            let fresh = IndexOptions::from_config(config).build_index(&final_collection).unwrap();

            for compacted in [false, true] {
                if compacted {
                    writer.compact_all().unwrap();
                }
                let reader = writer.reader();
                assert_eq!(
                    reader.segments().len(),
                    if compacted { 1 } else { segments },
                    "{signer}"
                );
                for rerank in [false, true] {
                    let opts =
                        QueryOptions { top_k: 6, rerank_exact: rerank, ..Default::default() };
                    let reference =
                        QueryEngine::snapshot_with_collection(reader.clone(), &collection)
                            .query_batch(&queries, &opts)
                            .unwrap();
                    // (2): single-rank reader ≡ remapped fresh rebuild.
                    let fresh_answers =
                        QueryEngine::snapshot_with_collection(fresh.clone(), &final_collection)
                            .query_batch(&queries, &opts)
                            .unwrap();
                    for (got, dense) in reference.iter().zip(&fresh_answers) {
                        let want: Vec<Neighbor> = dense
                            .iter()
                            .map(|m| Neighbor { id: live[m.id as usize], ..*m })
                            .collect();
                        assert_eq!(
                            got, &want,
                            "incremental reader diverges from rebuild \
                             (signer={signer}, segments={segments}, rerank={rerank}, \
                             compacted={compacted})"
                        );
                    }
                    // (1): every rank of every grid ≡ the single-rank reader.
                    for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4, 6, 8, 12]) {
                        let out = Runtime::new(ranks)
                            .run(|ctx| {
                                let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                                ctx.expect_ok(
                                    "dist_query_reader_batch",
                                    dist_query_reader_batch(
                                        ctx.world(),
                                        &reader,
                                        Some(&collection),
                                        q,
                                        &opts,
                                    ),
                                )
                            })
                            .unwrap();
                        for (rank, answers) in out.results.iter().enumerate() {
                            assert_eq!(
                                answers, &reference,
                                "rank {rank}/{ranks} (signer={signer}, segments={segments}, \
                                 rerank={rerank}, compacted={compacted}): segmented sharded \
                                 answers diverge"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The keyed single-exchange ships exactly what the per-segment
    /// exchange ships: identical top-k answers on every rank *and*
    /// identical total shipped row content (count, bytes and an
    /// order-insensitive content fingerprint — the wire framing is the
    /// only thing allowed to differ), across random segment layouts,
    /// random tombstones and both signers.
    #[test]
    fn keyed_exchange_equals_per_segment_exchange_on_random_layouts(
        splits in prop::collection::btree_set(1usize..30, 0..5),
        doomed in prop::collection::btree_set(0u32..30, 0..6),
        kmins in any::<bool>(),
        rerank in any::<bool>(),
    ) {
        let collection = family_workload();
        let n = collection.n();
        let signer = if kmins { SignerKind::KMins } else { SignerKind::Oph };
        let config =
            IndexConfig::default().with_signature_len(64).with_threshold(0.4).with_signer(signer);

        // Commit along the random split points, tombstoning doomed ids as
        // soon as they are committed (mid-stream, like a live writer).
        let deletes: Vec<u32> = doomed.into_iter().collect();
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        let mut start = 0usize;
        for end in splits.into_iter().chain(std::iter::once(n)) {
            for i in start..end {
                writer.add(collection.names()[i].clone(), collection.sample(i).to_vec()).unwrap();
            }
            writer.commit().unwrap();
            for &id in &deletes {
                if id < writer.id_bound() && !writer.reader().is_deleted(id) {
                    writer.delete(id).unwrap();
                }
            }
            writer.commit().unwrap();
            start = end;
        }
        let reader = writer.reader();

        let mut queries: Vec<Vec<u64>> =
            (0..n).step_by(9).map(|i| collection.sample(i).to_vec()).collect();
        queries.push(collection.sample(1).iter().copied().step_by(3).collect());
        queries.push(Vec::new());
        let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
        let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
            .query_batch(&queries, &opts)
            .unwrap();

        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4]) {
            let keyed = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "keyed exchange",
                        dist_query_reader_batch_stats(
                            ctx.world(),
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                        ),
                    )
                })
                .unwrap();
            let legacy = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "per-segment exchange",
                        dist_query_reader_batch_stats_per_segment(
                            ctx.world(),
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                        ),
                    )
                })
                .unwrap();
            let segments = reader.segments().len();
            for (rank, ((ka, ks), (la, ls))) in
                keyed.results.iter().zip(&legacy.results).enumerate()
            {
                prop_assert_eq!(
                    ka, &reference,
                    "keyed diverges (p={}, rank={}, segments={})", ranks, rank, segments
                );
                prop_assert_eq!(
                    la, &reference,
                    "legacy diverges (p={}, rank={}, segments={})", ranks, rank, segments
                );
                prop_assert_eq!(ks.fetched_rows, ls.fetched_rows);
                prop_assert_eq!(ks.fetched_bytes, ls.fetched_bytes);
                prop_assert_eq!(ks.fetched_fingerprint, ls.fetched_fingerprint);
                prop_assert_eq!(&ks.per_segment, &ls.per_segment);
                // The budget: constant for keyed, linear for per-segment.
                let base = if rerank { 4 } else { 3 };
                prop_assert_eq!(ks.collective_calls, base + 2);
                prop_assert_eq!(ls.collective_calls, base + 2 * segments);
            }
        }
    }

    /// The planned mixed-placement path answers bit-identically to both
    /// the single-rank engine and the pure band-sharded keyed path,
    /// across random commit layouts × random placements × both signers ×
    /// both rerank modes — and replicated segments never fetch a row
    /// over the wire.
    #[test]
    fn planned_mixed_placement_equals_single_rank_and_pure_sharding(
        splits in prop::collection::btree_set(1usize..30, 0..5),
        placement_bits in prop::collection::vec(any::<bool>(), 1..12),
        kmins in any::<bool>(),
        rerank in any::<bool>(),
    ) {
        let collection = family_workload();
        let n = collection.n();
        let signer = if kmins { SignerKind::KMins } else { SignerKind::Oph };
        let config =
            IndexConfig::default().with_signature_len(64).with_threshold(0.4).with_signer(signer);

        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        let mut start = 0usize;
        for end in splits.into_iter().chain(std::iter::once(n)) {
            for i in start..end {
                writer.add(collection.names()[i].clone(), collection.sample(i).to_vec()).unwrap();
            }
            writer.commit().unwrap();
            start = end;
        }
        let reader = writer.reader();
        let segments = reader.segments().len();
        let placements: Vec<SegmentPlacement> = (0..segments)
            .map(|i| {
                if placement_bits[i % placement_bits.len()] {
                    SegmentPlacement::Replicated
                } else {
                    SegmentPlacement::Sharded
                }
            })
            .collect();

        let mut queries: Vec<Vec<u64>> =
            (0..n).step_by(9).map(|i| collection.sample(i).to_vec()).collect();
        queries.push(collection.sample(1).iter().copied().step_by(3).collect());
        queries.push(Vec::new());
        let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
        let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
            .query_batch(&queries, &opts)
            .unwrap();

        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4]) {
            let planned_out = Runtime::new(ranks)
                .run(|ctx| {
                    let (planned, install) = ctx.expect_ok(
                        "install placement",
                        install_placement(ctx.world(), &reader, &placements, None),
                    );
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    let (answers, degraded, stats) = ctx.expect_ok(
                        "planned batch",
                        dist_query_reader_batch_planned(
                            ctx.world(),
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                            &planned,
                        ),
                    );
                    assert_eq!(degraded, DegradedReport::default(), "fault-free round");
                    (answers, stats, install)
                })
                .unwrap();
            let sharded_out = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "pure band-sharded batch",
                        dist_query_reader_batch_stats(
                            ctx.world(),
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                        ),
                    )
                })
                .unwrap();
            for (rank, ((pa, ps, install), (sa, _))) in
                planned_out.results.iter().zip(&sharded_out.results).enumerate()
            {
                prop_assert_eq!(
                    pa, &reference,
                    "planned diverges from single-rank (p={}, rank={}, segments={}, \
                     placements={:?})", ranks, rank, segments, &placements
                );
                prop_assert_eq!(
                    sa, pa,
                    "pure sharding diverges from planned (p={}, rank={})", ranks, rank
                );
                prop_assert_eq!(install.collective_calls, 1);
                prop_assert_eq!(ps.collective_calls, if rerank { 6 } else { 5 });
                for (seg_idx, seg) in ps.per_segment.iter().enumerate() {
                    prop_assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                    if placements[seg_idx] == SegmentPlacement::Replicated {
                        prop_assert_eq!(
                            seg.fetched_rows, 0,
                            "replicated segment {} fetched rows over the wire", seg_idx
                        );
                    }
                }
            }
        }
    }

    /// Failover × mixed placement: a random placement installed on a
    /// 2-way replicated layout, install and batch both over the survivor
    /// subgroup of one crashed rank, answers bit-identically to the
    /// single-rank engine on every survivor — replicated segments still
    /// fetch nothing, the round still costs 1 + 5 (6) collectives — and
    /// without replicas the install fails typed on every survivor.
    #[test]
    fn failover_composes_with_planned_mixed_placement(
        splits in prop::collection::btree_set(1usize..30, 0..5),
        doomed in prop::collection::btree_set(0u32..30, 0..6),
        placement_bits in prop::collection::vec(any::<bool>(), 1..12),
        crashed_seed in 0usize..64,
        rerank in any::<bool>(),
    ) {
        let collection = family_workload();
        let n = collection.n();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let deletes: Vec<u32> = doomed.into_iter().collect();
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        let mut start = 0usize;
        for end in splits.into_iter().chain(std::iter::once(n)) {
            for i in start..end {
                writer.add(collection.names()[i].clone(), collection.sample(i).to_vec()).unwrap();
            }
            writer.commit().unwrap();
            for &id in &deletes {
                if id < writer.id_bound() && !writer.reader().is_deleted(id) {
                    writer.delete(id).unwrap();
                }
            }
            writer.commit().unwrap();
            start = end;
        }
        let reader = writer.reader();
        let placements: Vec<SegmentPlacement> = (0..reader.segments().len())
            .map(|i| {
                if placement_bits[i % placement_bits.len()] {
                    SegmentPlacement::Replicated
                } else {
                    SegmentPlacement::Sharded
                }
            })
            .collect();

        let mut queries: Vec<Vec<u64>> =
            (0..n).step_by(9).map(|i| collection.sample(i).to_vec()).collect();
        queries.push(Vec::new());
        let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
        let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
            .query_batch(&queries, &opts)
            .unwrap();

        for ranks in env_usize_list("GAS_DIST_RANKS", &[4, 6, 8]) {
            if ranks < 2 {
                continue; // failover needs a survivor
            }
            let crashed = crashed_seed % ranks;
            // Install over the survivors of a `replication`-way layout,
            // then (when the install succeeds) one batch.
            let round = |replication: usize| {
                Runtime::new(ranks)
                    .with_faults(RankFaults::none().crash(crashed))
                    .run(|ctx| {
                        let world = ctx.world();
                        if world.is_crashed() {
                            return None;
                        }
                        let base = ServingLayout::sharded(world, &reader, replication);
                        let sub = ctx.expect_ok(
                            "survivor subgroup",
                            world.subgroup(&world.alive_world_ranks()),
                        );
                        let installed = install_placement(&sub, &reader, &placements, Some(&base));
                        Some(installed.map(|(layout, install)| {
                            let q = if sub.rank() == 0 { Some(&queries[..]) } else { None };
                            let (answers, degraded, stats) = ctx.expect_ok(
                                "planned batch under failover",
                                dist_query_reader_batch_planned(
                                    &sub,
                                    &reader,
                                    Some(&collection),
                                    q,
                                    &opts,
                                    &layout,
                                ),
                            );
                            (answers, degraded, stats, install)
                        }))
                    })
                    .unwrap()
            };

            let out = round(2);
            for (rank, result) in out.results.iter().enumerate() {
                let Some(result) = result else {
                    prop_assert_eq!(rank, crashed);
                    continue;
                };
                // A typed error or a hang would have failed `expect_ok`.
                let (answers, degraded, stats, install) =
                    result.as_ref().expect("two owners per slot cover one crash");
                prop_assert_eq!(
                    answers, &reference,
                    "failover diverges (p={}, crashed={}, rank={}, placements={:?})",
                    ranks, crashed, rank, &placements
                );
                prop_assert!(!degraded.degraded, "full coverage is not degraded");
                prop_assert_eq!(&degraded.failed_ranks, &vec![crashed]);
                prop_assert_eq!(install.collective_calls, 1);
                prop_assert_eq!(stats.collective_calls, if rerank { 6 } else { 5 });
                for (seg, placement) in stats.per_segment.iter().zip(&placements) {
                    prop_assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                    if *placement == SegmentPlacement::Replicated {
                        prop_assert_eq!(seg.fetched_rows, 0, "replica fetched rows under failover");
                    }
                }
            }

            // Unreplicated, the crashed rank's slot is lost: any replica
            // needing one of its rows cannot be assembled — a typed error
            // on every survivor, never a panic or a hang.
            let loses_rows = reader.segments().iter().zip(&placements).any(|(seg, placement)| {
                *placement == SegmentPlacement::Replicated && seg.n_rows() > crashed
            });
            if loses_rows {
                for result in round(1).results.iter().flatten() {
                    prop_assert!(
                        matches!(result, Err(IndexError::Corrupt { context })
                            if context.contains("no rank shipped row")),
                        "a lost slot must fail the install typed (p={}, crashed={})",
                        ranks, crashed
                    );
                }
            }
        }
    }
}

#[test]
fn persisted_index_serves_identically_to_the_built_one() {
    // The full serving loop of the README: build → persist → load →
    // serve, sharded. Answers from the loaded index must match answers
    // from the freshly built one.
    let collection = family_workload();
    let options = IndexOptions::from_config(IndexConfig::default().with_signature_len(64));
    let index = options.build_index(&collection).unwrap();
    let path =
        std::env::temp_dir().join(format!("gas_serving_persisted_{}.gidx", std::process::id()));
    options.create_writer_at(&path).unwrap().commit_collection(&collection).unwrap();
    let loaded = IndexReader::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let queries: Vec<Vec<u64>> = (0..4).map(|i| collection.sample(i * 7).to_vec()).collect();
    let opts = QueryOptions { top_k: 5, rerank_exact: true, ..Default::default() };

    let built_answers = QueryEngine::snapshot_with_collection(index, &collection)
        .query_batch(&queries, &opts)
        .unwrap();
    let ranks = *env_usize_list("GAS_DIST_RANKS", &[4]).first().unwrap_or(&4);
    let out = Runtime::new(ranks)
        .run(|ctx| {
            let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
            ctx.expect_ok(
                "dist_query_reader_batch over loaded index",
                dist_query_reader_batch(ctx.world(), &loaded, Some(&collection), q, &opts),
            )
        })
        .unwrap();
    for answers in &out.results {
        assert_eq!(answers, &built_answers);
    }
}

#[test]
fn planned_placement_moves_fewer_wire_bytes_than_either_pure_placement() {
    // The skewed fixture: two hot families of 20 that every query
    // targets, then eight fresh families of 4 that no query touches, one
    // committed segment per family. Family `f`, member `m`: a 400-element
    // core plus a 50-element private stretch (siblings at Jaccard 0.8).
    let family_sizes: Vec<usize> = [20; 2].into_iter().chain([4; 8]).collect();
    let mut samples = Vec::new();
    for (f, &members) in family_sizes.iter().enumerate() {
        let base = f as u64 * 100_000;
        for m in 0..members as u64 {
            let private = base + 50_000 + m * 60;
            samples.push((base..base + 400).chain(private..private + 50).collect::<Vec<u64>>());
        }
    }
    let collection = SampleCollection::from_sets(samples).unwrap();
    let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
    let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
    let mut next = 0usize;
    for &members in &family_sizes {
        for _ in 0..members {
            writer.add(format!("s{next}"), collection.sample(next).to_vec()).unwrap();
            next += 1;
        }
        writer.commit().unwrap();
    }
    let reader = writer.reader();
    let queries: Vec<Vec<u64>> = (0..6).map(|i| collection.sample((i * 7) % 40).to_vec()).collect();
    let opts = QueryOptions { top_k: 5, rerank_exact: false, ..Default::default() };
    let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
        .query_batch(&queries, &opts)
        .unwrap();

    // Plan from the heat the reference batch left: settled segments keep
    // the default horizon, fresh ones churn within the window.
    let observations: Vec<SegmentObservation> = reader
        .segment_stats()
        .iter()
        .map(|s| {
            let obs = SegmentObservation::from_stats(s, 1);
            if s.rows >= 20 {
                obs
            } else {
                obs.with_residency(2.0)
            }
        })
        .collect();
    let p = 4;
    let model = Machine::stampede2_knl().cost_model().unwrap();
    // A shipped row is the 64 signature words plus its key word.
    let plan = plan_placement(&model, p, 64 + 1, &observations).unwrap();
    let replicated = plan.iter().filter(|&&pl| pl == SegmentPlacement::Replicated).count();
    assert_eq!((replicated, plan.len() - replicated), (2, 8));

    // Install, then serve a window of six batches: wire bytes summed over
    // ranks, every rank's answers checked against the single-rank engine.
    let total_wire_bytes = |placements: &[SegmentPlacement]| -> u64 {
        let out = Runtime::new(p)
            .run(|ctx| {
                let (layout, install) = ctx.expect_ok(
                    "install",
                    install_placement(ctx.world(), &reader, placements, None),
                );
                let mut wire = install.install_bytes;
                let mut identical = true;
                for _ in 0..6 {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    let (answers, _, stats) = ctx.expect_ok(
                        "planned batch",
                        dist_query_reader_batch_planned(
                            ctx.world(),
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                            &layout,
                        ),
                    );
                    wire += stats.wire_bytes();
                    identical &= answers == reference;
                }
                (wire as u64, identical)
            })
            .unwrap();
        for (rank, (_, identical)) in out.results.iter().enumerate() {
            assert!(identical, "rank {rank} diverges under {placements:?}");
        }
        out.results.iter().map(|(wire, _)| wire).sum()
    };
    let segments = family_sizes.len();
    let planned = total_wire_bytes(&plan);
    let replicated = total_wire_bytes(&vec![SegmentPlacement::Replicated; segments]);
    let sharded = total_wire_bytes(&vec![SegmentPlacement::Sharded; segments]);
    // Planned ≤ all-replicate ≤ all-shard, exactly.
    assert_eq!((planned, replicated, sharded), (170_850, 220_770, 499_986));
}
