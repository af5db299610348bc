//! `query_batch` / `query_page_batch` are one parallel pass over their
//! queries, and must be indistinguishable from the serial loop they
//! replaced: the same answers bit for bit, the same error from the same
//! (lowest-indexed) failing query, and the same per-segment probe heat —
//! what `plan_placement` reads from `segment_stats()`.

use genomeatscale::index::IndexError;
use genomeatscale::prelude::*;
use proptest::prelude::*;

/// Strategy: a small corpus over a bounded universe (sets may be empty).
fn corpora() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(
        prop::collection::btree_set(0u64..1_024, 0..48)
            .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
        4..14,
    )
}

/// Per-segment `(segment_id, probes, candidates)` heat of a snapshot.
fn heat(reader: &IndexReader) -> Vec<(u64, u64, u64)> {
    reader.segment_stats().iter().map(|s| (s.segment_id, s.probes, s.candidates)).collect()
}

/// What `run` added to the heat of `reader`'s segments (segments it did
/// not probe left out), and what it returned.
fn with_heat_delta<T>(reader: &IndexReader, run: impl FnOnce() -> T) -> (T, Vec<(u64, u64, u64)>) {
    let before = heat(reader);
    let out = run();
    let delta = heat(reader)
        .into_iter()
        .zip(before)
        .map(|((id, probes, candidates), (_, was_p, was_c))| {
            (id, probes - was_p, candidates - was_c)
        })
        .filter(|&(_, probes, candidates)| probes > 0 || candidates > 0)
        .collect();
    (out, delta)
}

/// The serial loop a batch must be indistinguishable from: it stops at
/// the first failing query, so its error is that query's (rendered —
/// errors do not implement `PartialEq`) and its probe heat covers the
/// queries up to and including that one. Heat equality is what pins the
/// *index* a batch blames: blaming a later failing query would record
/// more probes.
fn serial<T>(n: usize, one: impl Fn(usize) -> Result<T, IndexError>) -> Result<Vec<T>, String> {
    (0..n).map(|i| one(i).map_err(|e| e.to_string())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn batches_equal_the_serial_loop_in_answers_errors_and_probe_heat(
        samples in corpora(),
        commit_every in 1usize..6,
        delete_seed in 0u64..1_000,
        page_size in 1usize..6,
    ) {
        // A segmented snapshot with tombstones: commit every few adds,
        // delete roughly a quarter of the sealed rows.
        let config = IndexConfig::default().with_signature_len(24).with_threshold(0.4);
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        for (i, s) in samples.iter().enumerate() {
            writer.add(format!("s{i}"), s.clone()).unwrap();
            if (i + 1) % commit_every == 0 {
                writer.commit().unwrap();
            }
        }
        writer.commit().unwrap();
        for id in 0..samples.len() as u32 - 1 {
            if genomeatscale::core::minhash::splitmix64(u64::from(id) ^ delete_seed).is_multiple_of(4) {
                writer.delete(id).unwrap();
            }
        }
        writer.commit().unwrap();
        let reader = writer.reader();
        let collection = SampleCollection::from_sorted_sets(samples.clone()).unwrap();
        let with_rows = QueryEngine::snapshot_with_collection(reader.clone(), &collection);
        let signatures_only = QueryEngine::snapshot(reader.clone());
        // A collection missing the upper half of the rows: re-ranking
        // fails for exactly the queries with a candidate up there, so
        // which query fails first depends on the batch.
        let lower_half =
            SampleCollection::from_sorted_sets(samples[..samples.len() / 2].to_vec()).unwrap();
        let half_rows = QueryEngine::snapshot_with_collection(reader.clone(), &lower_half);

        // Seventeen queries: the corpus cycled, one shuffled with
        // duplicates, one empty.
        let mut pool: Vec<Vec<u64>> =
            (0..15).map(|i| samples[i % samples.len()].clone()).collect();
        let mut messy: Vec<u64> = samples[0].iter().rev().copied().collect();
        messy.extend_from_slice(&samples[0]);
        pool.push(messy);
        pool.push(Vec::new());

        for batch_size in [0usize, 1, 2, 17] {
            let queries = &pool[..batch_size];
            for rerank in [false, true] {
                let opts = QueryOptions { top_k: 4, rerank_exact: rerank, ..Default::default() };
                // Re-ranking without a collection fails in every query,
                // with half of one in some; both fail after probing.
                for engine in [&with_rows, &signatures_only, &half_rows] {
                    let (want, serial_heat) = with_heat_delta(&reader, || {
                        serial(queries.len(), |i| engine.query(&queries[i], &opts))
                    });
                    let (got, batch_heat) =
                        with_heat_delta(&reader, || engine.query_batch(queries, &opts));
                    let got = got.map_err(|e| e.to_string());
                    prop_assert_eq!(&got, &want, "batch={}, rerank={}", batch_size, rerank);
                    prop_assert_eq!(batch_heat, serial_heat, "heat, batch={}", batch_size);
                }

                // Pages: walk the lock-step cursor until the scan ends.
                let mut req = PageRequest::new(page_size).with_rerank(rerank);
                loop {
                    let (want, serial_heat) = with_heat_delta(&reader, || {
                        serial(queries.len(), |i| with_rows.query_page(&queries[i], &req))
                    });
                    let (got, batch_heat) =
                        with_heat_delta(&reader, || with_rows.query_page_batch(queries, &req));
                    let got = got.map_err(|e| e.to_string());
                    prop_assert_eq!(&got, &want, "pages, batch={}", batch_size);
                    prop_assert_eq!(batch_heat, serial_heat, "page heat, batch={}", batch_size);
                    let pages = got.expect("valid page requests succeed");
                    // Advance while every query still has a next page at
                    // the same offset (the batch shares one cursor).
                    let next = pages.iter().map(|p| p.next_cursor).collect::<Option<Vec<_>>>();
                    match next.as_deref() {
                        Some([first, rest @ ..]) if rest.iter().all(|c| c == first) => {
                            req = req.with_cursor(*first);
                        }
                        _ => break,
                    }
                }
            }

            // An invalid page request fails before any probe, so neither
            // loop records heat; a stale cursor likewise.
            for bad in [
                PageRequest::new(0),
                PageRequest::new(page_size)
                    .with_cursor(PageCursor::parse(&format!("{:x}.0", reader.generation() + 1)).unwrap()),
            ] {
                let (want, serial_heat) = with_heat_delta(&reader, || {
                    serial(queries.len(), |i| with_rows.query_page(&queries[i], &bad))
                });
                let (got, batch_heat) =
                    with_heat_delta(&reader, || with_rows.query_page_batch(queries, &bad));
                let got = got.map_err(|e| e.to_string());
                prop_assert_eq!(got.is_err(), !queries.is_empty());
                prop_assert_eq!(&got, &want, "invalid page, batch={}", batch_size);
                prop_assert!(batch_heat.is_empty() && serial_heat.is_empty());
            }
        }
    }
}
