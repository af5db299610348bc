//! Lifecycle properties of the segmented index: the incremental path is
//! *exact* (any split of the corpus into base + added batches, with
//! deletes, answers bit-identically to a fresh monolithic build over the
//! final corpus — before and after compaction), and the container-v3
//! commit protocol is crash-safe (truncating the file anywhere during a
//! commit leaves the previous manifest generation readable; flipping any
//! byte is rejected or falls back to an older generation).

use genomeatscale::index::lifecycle::{CompactionPolicy, Compactor};
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

fn unique_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gas_lifecycle_it_{tag}_{}_{n}.gidx", std::process::id()))
}

/// Strategy: a small corpus of samples over a bounded universe,
/// including possibly-empty sets.
fn corpora() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(
        prop::collection::btree_set(0u64..2_048, 0..60)
            .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
        3..12,
    )
}

/// Deterministic pseudo-random delete pick: roughly a quarter of the
/// ids, never all of them (a fresh build needs a non-empty corpus).
fn pick_deletes(n: usize, seed: u64) -> Vec<u32> {
    let mut deletes: Vec<u32> = (0..n as u32)
        .filter(|&id| genomeatscale::core::minhash::splitmix64(id as u64 ^ seed).is_multiple_of(4))
        .collect();
    if deletes.len() == n {
        deletes.pop();
    }
    deletes
}

/// Translate a fresh build's dense answer ids back to global ids via the
/// sorted live-id list (the remap is strictly monotone, so ordering and
/// tie-breaking survive unchanged — that is what makes the comparison a
/// *bit-identical* one rather than a set comparison).
fn remap_dense_to_global(live: &[u32], answers: &[Neighbor]) -> Vec<Neighbor> {
    answers.iter().map(|n| Neighbor { id: live[n.id as usize], ..*n }).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `incremental adds (+ deletes) + compaction ≡ full rebuild`, for
    /// every batch split the strategy generates, under both signers,
    /// estimate-only and exactly re-ranked.
    #[test]
    fn incremental_adds_and_deletes_equal_full_rebuild(
        samples in corpora(),
        batch_size in 1usize..5,
        delete_seed in 0u64..1_000,
        signature_len in 8usize..49,
    ) {
        let n = samples.len();
        let deletes = pick_deletes(n, delete_seed);
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            let config = IndexConfig::default()
                .with_signature_len(signature_len)
                .with_threshold(0.5)
                .with_signer(signer);

            // Incremental path: commit in batches, deleting as soon as a
            // doomed sample is committed.
            let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
            let mut pending: Vec<u32> = deletes.clone();
            for batch in samples.chunks(batch_size) {
                for s in batch {
                    writer.add(format!("s{}", writer.id_bound()), s.clone()).unwrap();
                }
                writer.commit().unwrap();
                pending.retain(|&id| {
                    if id < writer.id_bound() {
                        writer.delete(id).unwrap();
                        false
                    } else {
                        true
                    }
                });
                writer.commit().unwrap();
            }
            prop_assert!(pending.is_empty());
            let reader = writer.reader();
            let live = reader.live_ids();
            prop_assert_eq!(live.len(), n - deletes.len());

            // Fresh monolithic build over the final (live) corpus.
            let final_sets: Vec<Vec<u64>> =
                live.iter().map(|&id| samples[id as usize].clone()).collect();
            let final_collection = SampleCollection::from_sorted_sets(final_sets).unwrap();
            let fresh = IndexOptions::from_config(config).build_index(&final_collection).unwrap();

            // Queries: every sample of the *full* corpus (deleted samples
            // still make valid queries), a perturbation, and empty.
            let mut queries: Vec<Vec<u64>> = samples.clone();
            queries.push(samples[0].iter().copied().step_by(2).collect());
            queries.push(Vec::new());

            // The engines' rerank collections: the reader's is indexed by
            // global id (the writer's corpus), the fresh one by dense id.
            let full_collection = SampleCollection::from_sorted_sets(samples.clone()).unwrap();

            for rerank in [false, true] {
                let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
                let incr_engine =
                    QueryEngine::snapshot_with_collection(reader.clone(), &full_collection);
                let fresh_engine =
                    QueryEngine::snapshot_with_collection(fresh.clone(), &final_collection);
                for q in &queries {
                    let got = incr_engine.query(q, &opts).unwrap();
                    let want = remap_dense_to_global(&live, &fresh_engine.query(q, &opts).unwrap());
                    prop_assert_eq!(got, want, "signer={}, rerank={}", signer, rerank);
                }
            }

            // Compaction (size-tiered pass, then a full roll-up) must not
            // change a single answer.
            let opts = QueryOptions { top_k: 5, ..Default::default() };
            let before: Vec<_> = queries
                .iter()
                .map(|q| QueryEngine::snapshot(reader.clone()).query(q, &opts).unwrap())
                .collect();
            let compactor =
                Compactor::new(CompactionPolicy { min_merge: 2, tier_factor: 4, ..Default::default() }).unwrap();
            compactor.compact(&mut writer).unwrap();
            writer.compact_all().unwrap();
            let compacted = writer.reader();
            prop_assert!(compacted.segments().len() <= 1);
            prop_assert!(compacted.tombstones().is_empty(), "compact_all purges tombstones");
            prop_assert_eq!(compacted.live_ids(), live.clone());
            for (q, want) in queries.iter().zip(&before) {
                let got = QueryEngine::snapshot(compacted.clone()).query(q, &opts).unwrap();
                prop_assert_eq!(&got, want, "answers changed across compaction ({signer})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Truncating the file anywhere inside a commit's appended bytes
    /// leaves the previous generation readable with its exact answers.
    #[test]
    fn truncation_during_commit_falls_back_to_previous_generation(
        samples in corpora(),
        cut in 0usize..100_000,
    ) {
        let config = IndexConfig::default().with_signature_len(16).with_threshold(0.5);
        let path = unique_path("crash");
        let mut writer = IndexOptions::from_config(config).create_writer_at(&path).unwrap();
        let split = samples.len() / 2;
        for s in &samples[..split] {
            writer.add(format!("s{}", writer.id_bound()), s.clone()).unwrap();
        }
        writer.commit().unwrap();
        let base_bytes = std::fs::read(&path).unwrap();
        let base_generation = writer.generation();
        let base_reader = writer.reader();
        let opts = QueryOptions { top_k: 4, ..Default::default() };
        let base_answers: Vec<_> = samples
            .iter()
            .map(|q| QueryEngine::snapshot(base_reader.clone()).query(q, &opts).unwrap())
            .collect();

        // The second commit: adds and (when possible) one delete.
        for s in &samples[split..] {
            writer.add(format!("s{}", writer.id_bound()), s.clone()).unwrap();
        }
        if split > 0 {
            writer.delete(0).unwrap();
        }
        writer.commit().unwrap();
        let full_bytes = std::fs::read(&path).unwrap();
        prop_assert!(full_bytes.len() > base_bytes.len());
        prop_assert_eq!(&full_bytes[..base_bytes.len()], &base_bytes[..], "commits append");

        // Truncate anywhere inside the appended suffix (including cutting
        // it off entirely) and reopen: the base generation must survive,
        // with identical answers.
        let pos = base_bytes.len() + cut % (full_bytes.len() - base_bytes.len());
        std::fs::write(&path, &full_bytes[..pos]).unwrap();
        let (reader, report) = IndexReader::open_with_report(&path).unwrap();
        prop_assert_eq!(reader.generation(), base_generation);
        prop_assert_eq!(reader.n_live(), split);
        prop_assert_eq!(report.torn_bytes, pos - base_bytes.len());
        for (q, want) in samples.iter().zip(&base_answers) {
            let got = QueryEngine::snapshot(reader.clone()).query(q, &opts).unwrap();
            prop_assert_eq!(&got, want);
        }

        // A writer reopening over the torn tail heals it: the next
        // commit truncates the garbage and appends cleanly.
        let mut healed = IndexWriter::open(&path).unwrap();
        prop_assert_eq!(healed.generation(), base_generation);
        healed.add("replay", samples[split.min(samples.len() - 1)].clone()).unwrap();
        healed.commit().unwrap();
        let reopened = IndexReader::open_with_report(&path).unwrap();
        prop_assert_eq!(reopened.0.generation(), base_generation + 1);
        prop_assert_eq!(reopened.1.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Flipping any single byte of a multi-generation file is either
    /// rejected with a typed error or falls back to a strictly older
    /// generation — never served as the newest generation, never a
    /// panic.
    #[test]
    fn single_byte_flips_are_rejected_or_fall_back(
        byte in 0usize..200_000,
    ) {
        let config = IndexConfig::default().with_signature_len(16).with_threshold(0.5);
        let path = unique_path("flip");
        let mut writer = IndexOptions::from_config(config).create_writer_at(&path).unwrap();
        writer.add("a", (0..40u64).collect()).unwrap();
        writer.add("b", (20..60u64).collect()).unwrap();
        writer.commit().unwrap();
        writer.add("c", (100..140u64).collect()).unwrap();
        writer.delete(0).unwrap();
        writer.commit().unwrap();
        let final_generation = writer.generation();
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = byte % bytes.len();
        bytes[pos] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();
        match IndexReader::open_with_report(&path) {
            Err(
                IndexError::BadMagic
                | IndexError::UnsupportedVersion(_)
                | IndexError::ChecksumMismatch { .. }
                | IndexError::Truncated { .. }
                | IndexError::Corrupt { .. }
                | IndexError::NoLiveGeneration(_),
            ) => {}
            Err(other) => panic!("flip at {pos} produced an unexpected error: {other:?}"),
            Ok((reader, _)) => prop_assert!(
                reader.generation() < final_generation,
                "flip at {} still served the newest generation",
                pos
            ),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Uncompacted multi-segment snapshots serve bit-identically sharded:
/// for every `GAS_DIST_SEGMENTS` commit count (the dist-matrix threads
/// one per CI job) and every `GAS_DIST_RANKS` grid size, the keyed
/// distributed path over a freshly grown, *never compacted* reader must
/// answer exactly like the single-rank engine on that reader — the
/// lifecycle counterpart of the query-serving grid, which compaction
/// must not be needed to pass. Every count costs the same six
/// collectives; the default list reaches 16 segments, where the
/// per-segment reference would pay `4 + 2·16`.
#[test]
fn uncompacted_readers_serve_sharded_across_the_segment_grid() {
    let config = IndexConfig::default()
        .with_signature_len(64)
        .with_threshold(0.4)
        .with_signer(SignerKind::Oph);
    let samples: Vec<Vec<u64>> = (0..28u64)
        .map(|i| {
            let family = i / 7;
            let mut s: Vec<u64> = (family * 10_000..family * 10_000 + 120).collect();
            s.extend(family * 10_000 + 5_000 + i * 11..family * 10_000 + 5_000 + i * 11 + 30);
            s
        })
        .collect();
    let collection = SampleCollection::from_sorted_sets(samples.clone()).unwrap();
    let n = samples.len();
    let deletes = pick_deletes(n, 7);
    let mut queries: Vec<Vec<u64>> = samples.iter().step_by(5).cloned().collect();
    queries.push(Vec::new());
    let opts = QueryOptions { top_k: 4, rerank_exact: true, ..Default::default() };

    for segments in env_usize_list("GAS_DIST_SEGMENTS", &[1, 7, 16]) {
        // `segments` near-equal commits, tombstoning doomed ids as soon
        // as they are committed; never compacted.
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        let mut start = 0usize;
        for s in 0..segments {
            let end = start + (n - start) / (segments - s);
            for (i, sample) in samples.iter().enumerate().take(end).skip(start) {
                writer.add(format!("s{i}"), sample.clone()).unwrap();
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
        assert_eq!(reader.segments().len(), segments, "snapshot must stay uncompacted");
        let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
            .query_batch(&queries, &opts)
            .unwrap();
        for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4, 6]) {
            let out = Runtime::new(ranks)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "dist over uncompacted reader",
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
            for (rank, (answers, stats)) in out.results.iter().enumerate() {
                assert_eq!(
                    answers, &reference,
                    "rank {rank}/{ranks}, {segments} segments: uncompacted sharded \
                     answers diverge"
                );
                // One keyed round regardless of segment count.
                assert_eq!(stats.collective_calls, 6, "{segments} segments");
                assert_eq!(stats.per_segment.len(), segments);
            }
        }
    }
}

/// The v3 container round-trips the whole lifecycle state losslessly:
/// every segment (id, rows, signatures, names, buckets), the tombstone
/// set, the generation and the id high-water mark.
#[test]
fn container_v3_round_trips_the_full_state() {
    let config = IndexConfig::default()
        .with_signature_len(32)
        .with_threshold(0.4)
        .with_signer(SignerKind::Oph);
    let path = unique_path("lossless");
    let mut writer = IndexOptions::from_config(config).create_writer_at(&path).unwrap();
    for i in 0..7u64 {
        writer.add(format!("naïve-{i}-✓"), (i * 30..i * 30 + 50).collect()).unwrap();
        writer.commit().unwrap();
    }
    // Roll the seven single-row segments up (leaves unreferenced garbage
    // blocks in the file), then add one more segment and two tombstones
    // on top, so the reloaded state must carry merged + fresh segments
    // *and* live tombstones.
    Compactor::new(CompactionPolicy { min_merge: 2, tier_factor: 2, ..Default::default() })
        .unwrap()
        .compact(&mut writer)
        .unwrap();
    writer.add("late", (500..560u64).collect()).unwrap();
    writer.commit().unwrap();
    writer.delete(2).unwrap();
    writer.delete(5).unwrap();
    writer.commit().unwrap();
    let in_memory = writer.reader();
    assert!(in_memory.segments().len() >= 2);
    assert_eq!(in_memory.tombstones(), &[2, 5]);

    let (reloaded, report) = IndexReader::open_with_report(&path).unwrap();
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(reloaded.generation(), in_memory.generation());
    assert_eq!(reloaded.id_bound(), in_memory.id_bound());
    assert_eq!(reloaded.tombstones(), in_memory.tombstones());
    assert_eq!(reloaded.segments().len(), in_memory.segments().len());
    for (a, b) in reloaded.segments().iter().zip(in_memory.segments()) {
        assert_eq!(a, b, "segment {} does not round-trip", b.id());
    }
    assert_eq!(reloaded.name_of(3), Some("naïve-3-✓"));
    assert_eq!(reloaded.name_of(2), None, "tombstoned names are not served");

    // And the reloaded snapshot answers identically.
    let opts = QueryOptions { top_k: 4, ..Default::default() };
    let probe: Vec<u64> = (30..80).collect();
    assert_eq!(
        QueryEngine::snapshot(reloaded).query(&probe, &opts).unwrap(),
        QueryEngine::snapshot(in_memory).query(&probe, &opts).unwrap()
    );
    std::fs::remove_file(&path).ok();
}

// Pagination tiles exactly for *any* page size: the concatenated pages
// of a cursor walk equal the one-shot full ranking, every page but the
// last is exactly `page_size` hits, `total_candidates` is constant
// across the walk, and a `min_score` floor filters before paging (so
// pages still tile the filtered ranking).
proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn paged_scans_tile_for_any_page_size(
        samples in corpora(),
        page_size in 1usize..8,
        rerank in any::<bool>(),
        min_score_pct in 0usize..60,
    ) {
        let config = IndexConfig::default().with_signature_len(24).with_threshold(0.4);
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        let split = samples.len() / 2;
        for (i, s) in samples.iter().enumerate() {
            writer.add(format!("s{i}"), s.clone()).unwrap();
            if i + 1 == split {
                writer.commit().unwrap();
            }
        }
        writer.commit().unwrap();
        let collection = SampleCollection::from_sorted_sets(samples.clone()).unwrap();
        let engine = QueryEngine::snapshot_with_collection(writer.reader(), &collection);
        let min_score = min_score_pct as f64 / 100.0;
        let probe = &samples[0];

        let one_shot = engine
            .query_page(
                probe,
                &PageRequest::new(usize::MAX >> 1).with_min_score(min_score).with_rerank(rerank),
            )
            .unwrap();
        prop_assert!(one_shot.next_cursor.is_none());

        let mut req = PageRequest::new(page_size).with_min_score(min_score).with_rerank(rerank);
        let mut tiled = Vec::new();
        loop {
            let page = engine.query_page(probe, &req).unwrap();
            prop_assert_eq!(page.total_candidates, one_shot.total_candidates);
            match page.next_cursor {
                Some(next) => {
                    prop_assert_eq!(page.hits.len(), page_size, "only the last page may be short");
                    tiled.extend(page.hits);
                    req = PageRequest::new(page_size)
                        .with_min_score(min_score)
                        .with_rerank(rerank)
                        .with_cursor(next);
                }
                None => {
                    prop_assert!(page.hits.len() <= page_size);
                    tiled.extend(page.hits);
                    break;
                }
            }
        }
        prop_assert_eq!(tiled, one_shot.hits, "pages must tile the one-shot ranking exactly");
    }
}

/// The service vacuums by garbage share. In the perf ledger's mixed
/// serving shape — per round paged queries, adds, deletes of the oldest
/// rows and a commit, then one explicit `maintain()` per cycle — every
/// pass either rewrites the file or leaves its dead bytes under half the
/// live image, fewer passes rewrite than merge, answers never change,
/// and the file reopens to the same answers and the same live image.
#[test]
fn vacuum_by_garbage_share_bounds_the_file_with_fewer_rewrites() {
    let config = IndexConfig::default()
        .with_signature_len(64)
        .with_threshold(0.5)
        .with_signer(SignerKind::Oph);
    let path = unique_path("garbage_share");
    let file_len = || std::fs::metadata(&path).unwrap().len();
    let service =
        IndexOptions::from_config(config).with_auto_compact(false).serve_at(&path).unwrap();
    let core = |family: u64| -> Vec<u64> { (family * 10_000..family * 10_000 + 150).collect() };
    let rows = |ids: std::ops::Range<u64>| -> Vec<(String, Vec<u64>)> {
        ids.map(|id| {
            let mut set = core(id % 4);
            let private = (id % 4) * 10_000 + 5_000 + id * 41;
            set.extend(private..private + 40);
            (format!("r{id}"), set)
        })
        .collect()
    };
    let mut live = std::collections::VecDeque::new();
    let mut next = 0u64;
    for _ in 0..4 {
        live.extend(service.add_batch(rows(next..next + 16)).unwrap());
        next += 16;
        service.commit_wait().unwrap();
    }
    let page = PageRequest::new(5);
    for cycle in 0..24 {
        for round in 0..2u64 {
            let queries: Vec<Vec<u64>> = (0..4).map(|k| core((cycle + round + k) % 4)).collect();
            let served: Vec<QueryPage> = queries
                .iter()
                .flat_map(|q| service.query_paged(std::slice::from_ref(q), &page).unwrap())
                .collect();
            let fresh = QueryEngine::snapshot(service.snapshot())
                .query_page_batch(&queries, &page)
                .unwrap();
            assert_eq!(served, fresh, "cycle {cycle}: the service diverged from a fresh engine");
            assert!(served.iter().all(|p| !p.hits.is_empty()));
            live.extend(service.add_batch(rows(next..next + 4)).unwrap());
            next += 4;
            for id in live.drain(..4) {
                service.delete(id).unwrap();
            }
            service.commit_wait().unwrap();
        }
        let vacuums_before = service.stats().compact.vacuums_run;
        service.maintain();
        let stats = service.stats();
        let (live_bytes, dead_bytes) = (stats.file_live_bytes, stats.file_reclaimable_bytes);
        assert!(
            stats.compact.vacuums_run > vacuums_before || 2 * dead_bytes < live_bytes,
            "cycle {cycle}: {dead_bytes} reclaimable bytes over a {live_bytes}-byte image"
        );
        assert_eq!(file_len(), live_bytes + dead_bytes, "cycle {cycle}: the accounting drifted");
    }
    let stats = service.stats();
    let compact = stats.compact;
    assert!(
        compact.vacuums_run >= 1 && compact.vacuums_run < compact.passes,
        "{} vacuums over {} merges",
        compact.vacuums_run,
        compact.passes
    );

    let probes: Vec<Vec<u64>> = (0..4).map(core).collect();
    let opts = QueryOptions { top_k: 6, ..Default::default() };
    let answers = |reader: IndexReader| QueryEngine::snapshot(reader).query_batch(&probes, &opts);
    let want = answers(service.snapshot()).unwrap();
    drop(service);
    assert_eq!(answers(IndexReader::open(&path).unwrap()).unwrap(), want);
    let mut writer = IndexWriter::open(&path).unwrap();
    assert_eq!(answers(writer.reader()).unwrap(), want);
    assert_eq!(
        (writer.file_live_bytes(), writer.file_reclaimable_bytes()),
        (stats.file_live_bytes, stats.file_reclaimable_bytes),
        "a reopened writer tracks the same live image"
    );
    assert!(writer.vacuum().unwrap().rewritten);
    assert_eq!(file_len(), stats.file_live_bytes, "a rewrite writes exactly the live image");
    assert_eq!(answers(IndexReader::open(&path).unwrap()).unwrap(), want);
    std::fs::remove_file(&path).ok();
}

/// Concurrency stress over the serving frontend: one thread drives
/// pipelined commits and deletes through a [`LocalIndexService`] while
/// the background compactor merges segments underneath and query
/// threads page through pinned snapshots. Every sampled snapshot must
/// answer bit-identically to a *serial* monolithic rebuild of exactly
/// that snapshot's live corpus, pages must tile its one-shot ranking,
/// and at the end the sealed index must serve bit-identically through
/// the sharded distributed path (both batch and paged forms).
#[test]
fn service_stress_commits_compactions_and_paged_queries_stay_serializable() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    let config = IndexConfig::default()
        .with_signature_len(64)
        .with_threshold(0.4)
        .with_signer(SignerKind::Oph);
    let service = Arc::new(
        IndexOptions::from_config(config)
            .with_compact_interval(std::time::Duration::from_millis(1))
            .with_signer_threads(3)
            .serve()
            .unwrap(),
    );
    let corpus: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let probes: Vec<Vec<u64>> =
        (0..4u64).map(|f| (f * 10_000..f * 10_000 + 140).collect()).collect();
    let opts = QueryOptions { top_k: 6, ..Default::default() };

    let stop = Arc::new(AtomicBool::new(false));
    let sampled: Arc<Mutex<Vec<IndexReader>>> = Arc::new(Mutex::new(Vec::new()));
    let query_threads: Vec<_> = (0..3)
        .map(|t| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            let probes = probes.clone();
            std::thread::spawn(move || {
                let mut iter = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Pin a snapshot; everything below must be answered
                    // from exactly this generation, no matter what the
                    // writer and compactor do meanwhile.
                    let reader = service.snapshot();
                    let engine = QueryEngine::snapshot(reader.clone());
                    let probe = &probes[iter % probes.len()];
                    let one_shot =
                        engine.query_page(probe, &PageRequest::new(usize::MAX >> 1)).unwrap();
                    let page_size = 1 + (t + iter) % 3;
                    let mut req = PageRequest::new(page_size);
                    let mut tiled = Vec::new();
                    loop {
                        let page = engine.query_page(probe, &req).unwrap();
                        assert_eq!(page.total_candidates, one_shot.total_candidates);
                        tiled.extend(page.hits);
                        match page.next_cursor {
                            Some(next) => req = PageRequest::new(page_size).with_cursor(next),
                            None => break,
                        }
                    }
                    assert_eq!(
                        tiled, one_shot.hits,
                        "pages must tile their pinned snapshot's ranking under concurrency"
                    );
                    if iter.is_multiple_of(5) {
                        sampled.lock().unwrap().push(reader);
                    }
                    iter += 1;
                }
            })
        })
        .collect();

    // The writer side: waves of pipelined commits; tickets are waited
    // in groups of three so signing overlaps sealing; deletes target
    // only ids whose commits have provably sealed.
    let mut tickets = Vec::new();
    let mut deleted = std::collections::BTreeSet::new();
    for wave in 0..15u64 {
        let family = wave % 4;
        let batch: Vec<(String, Vec<u64>)> = (0..4u64)
            .map(|i| {
                let mut s: Vec<u64> = (family * 10_000..family * 10_000 + 140).collect();
                s.extend(
                    family * 10_000 + 5_000 + wave * 61 + i * 17
                        ..family * 10_000 + 5_000 + wave * 61 + i * 17 + 40,
                );
                (format!("w{wave}_{i}"), s)
            })
            .collect();
        {
            let mut corpus = corpus.lock().unwrap();
            let range = service.add_batch(batch.clone()).unwrap();
            assert_eq!(range.len(), batch.len());
            corpus.extend(batch.into_iter().map(|(_, s)| s));
        }
        tickets.push(service.commit().unwrap());
        if tickets.len() == 3 {
            for ticket in tickets.drain(..) {
                ticket.wait().unwrap();
            }
            let sealed_bound = service.snapshot().id_bound();
            // Tombstone one sealed id per drained group.
            let victim = (wave as u32 * 7) % sealed_bound;
            if deleted.insert(victim) {
                service.delete(victim).unwrap();
                tickets.push(service.commit().unwrap());
            }
        }
    }
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for t in query_threads {
        t.join().unwrap();
    }

    // Post-hoc serializability: each sampled snapshot answers exactly
    // like a fresh monolithic build over its own live corpus.
    let corpus = corpus.lock().unwrap();
    let mut sampled = sampled.lock().unwrap();
    sampled.push(service.snapshot());
    let mut checked = std::collections::BTreeSet::new();
    for reader in sampled.iter() {
        if !checked.insert(reader.generation()) {
            continue;
        }
        let live = reader.live_ids();
        if live.is_empty() {
            continue;
        }
        let final_sets: Vec<Vec<u64>> =
            live.iter().map(|&id| corpus[id as usize].clone()).collect();
        let fresh = IndexOptions::from_config(config)
            .build_index(&SampleCollection::from_sorted_sets(final_sets).unwrap())
            .unwrap();
        let fresh_engine = QueryEngine::snapshot(fresh);
        let engine = QueryEngine::snapshot(reader.clone());
        for probe in &probes {
            let got = engine.query(probe, &opts).unwrap();
            let want = remap_dense_to_global(&live, &fresh_engine.query(probe, &opts).unwrap());
            assert_eq!(
                got,
                want,
                "generation {} diverged from its serial rebuild",
                reader.generation()
            );
        }
    }

    // The sealed index serves bit-identically sharded, batch and paged.
    let reader = service.snapshot();
    let reference = QueryEngine::snapshot(reader.clone()).query_batch(&probes, &opts).unwrap();
    let page_req = PageRequest::new(3);
    let page_reference =
        QueryEngine::snapshot(reader.clone()).query_page_batch(&probes, &page_req).unwrap();
    for ranks in env_usize_list("GAS_DIST_RANKS", &[1, 4]) {
        let out = Runtime::new(ranks)
            .run(|ctx| {
                let q = if ctx.rank() == 0 { Some(&probes[..]) } else { None };
                let batch = ctx.expect_ok(
                    "service reader dist batch",
                    dist_query_reader_batch(ctx.world(), &reader, None, q, &opts),
                );
                let pages = ctx.expect_ok(
                    "service reader dist page",
                    dist_query_reader_page(ctx.world(), &reader, None, q, &page_req),
                );
                (batch, pages)
            })
            .unwrap();
        for (rank, (batch, pages)) in out.results.iter().enumerate() {
            assert_eq!(batch, &reference, "rank {rank}/{ranks}: dist batch diverged");
            assert_eq!(pages, &page_reference, "rank {rank}/{ranks}: dist pages diverged");
        }
    }
}
