//! Walkthrough: build a sketch index, persist it, and serve top-k
//! similarity queries — single-rank and sharded over simulated ranks.
//!
//! Run with: `cargo run --release --example query_index`

use genomeatscale::prelude::*;

fn main() {
    // A small collection of "genomes": four families of near-duplicates,
    // represented directly as k-mer code sets.
    let mut samples = Vec::new();
    for family in 0..4u64 {
        let core: Vec<u64> = (family * 1_000_000..family * 1_000_000 + 800).collect();
        for member in 0..4u64 {
            let mut s = core.clone();
            let private = family * 1_000_000 + 500_000 + member * 60;
            s.extend(private..private + 60);
            samples.push(s);
        }
    }
    let collection = SampleCollection::from_sets(samples).expect("valid samples");
    println!("collection: {} samples over a {}-value universe", collection.n(), collection.m());

    // 1. BUILD — signatures + LSH buckets tuned for a Jaccard threshold.
    // The one-permutation-hashing signer hashes each k-mer once
    // (O(|set| + len) per sample) instead of once per signature position;
    // the container records the signer, so queries stay compatible.
    let config = IndexConfig::default()
        .with_signature_len(128)
        .with_threshold(0.5)
        .with_signer(SignerKind::Oph);
    let options = IndexOptions::from_config(config);
    let index = options.build_index(&collection).expect("build succeeds");
    println!(
        "index: {} bands x {} rows, S-curve threshold {:.3}",
        index.params().bands(),
        index.params().rows(),
        index.params().threshold()
    );

    // 2. PERSIST — the same one commit, into a container file; read it
    // back, nothing lost. (A growing corpus keeps the writer and commits
    // again: see the `incremental_index` example.)
    let path =
        std::env::temp_dir().join(format!("query_index_example_{}.gidx", std::process::id()));
    let mut writer = options.create_writer_at(&path).expect("container creates");
    writer.commit_collection(&collection).expect("container writes");
    let loaded = IndexReader::open(&path).expect("container reads");
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.segments(), index.segments(), "round-trip must be lossless");
    println!("persisted and re-loaded the index ({size} bytes)");

    // 3. QUERY — a perturbed copy of sample 5 (family 1): drop every
    // fifth element (J ≈ 0.8 against the source), add noise, then ask
    // for its 4 nearest samples.
    let mut query: Vec<u64> = collection
        .sample(5)
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, &v)| v)
        .collect();
    query.extend(77_000_000..77_000_040);
    query.sort_unstable();

    let engine = QueryEngine::snapshot_with_collection(loaded.clone(), &collection);
    let opts = QueryOptions { top_k: 4, rerank_exact: true, ..Default::default() };
    let hits = engine.query(&query, &opts).expect("query succeeds");
    println!("\ntop-{} neighbors (exact popcount re-rank):", opts.top_k);
    for n in &hits {
        println!(
            "  {:>10}  J = {:.4}  (signature agreement {}/{})",
            loaded.name_of(n.id).expect("hits are live samples"),
            n.score,
            n.agreement,
            loaded.scheme().len()
        );
    }
    assert_eq!(hits.len(), opts.top_k, "the whole family should be retrieved");
    assert_eq!(hits[0].id, 5, "the source sample is the best match");
    assert!(hits.iter().all(|n| (4..8).contains(&(n.id as usize))), "family 1 members expected");

    // 4. DISTRIBUTE — shard the buckets *and* the signature matrix over
    // 4 simulated ranks; answers must match the single-rank engine
    // exactly, and each rank stores only ~n/4 signature rows.
    let queries = [query];
    let out = Runtime::new(4)
        .run(|ctx| {
            let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
            ctx.expect_ok(
                "dist_query_reader_batch_stats",
                dist_query_reader_batch_stats(ctx.world(), &loaded, Some(&collection), q, &opts),
            )
        })
        .expect("distributed run succeeds");
    for (result, stats) in &out.results {
        assert_eq!(result[0], hits, "sharded answers must equal the single-rank answers");
        assert!(stats.shard_bytes * 2 < stats.replicated_bytes, "signatures must be sharded");
    }
    let (_, stats) = &out.results[0];
    println!(
        "\nsharded over 4 ranks: identical answers, {} bytes on the wire, \
         {} signature bytes per rank instead of {} replicated",
        out.aggregate().total_bytes_sent,
        stats.shard_bytes,
        stats.replicated_bytes
    );
}
