//! Property tests of the one-permutation-hashing signer: its Jaccard
//! estimator must agree with exact Jaccard within the same tolerance as
//! the classical k-mins signer, densification must handle degenerate
//! (empty / singleton) sets, a persisted index must reject queries
//! signed under a different signer with a typed error, and both signers
//! must serve a re-ranked recall@10 of at least 0.9.

use genomeatscale::core::minhash::{SignatureScheme, SignerKind, EMPTY_SET_SENTINEL};
use genomeatscale::index::IndexError;
use genomeatscale::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};

/// Exact Jaccard of two sorted, deduplicated slices.
fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        return 1.0;
    }
    inter as f64 / union as f64
}

fn sets(min: usize, max: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(0u64..4_096, min..max)
        .prop_map(|s| s.into_iter().collect::<Vec<u64>>())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn oph_estimate_matches_exact_within_the_kmins_tolerance(
        a in sets(150, 400),
        b in sets(150, 400),
        seed in 0u64..1_000,
    ) {
        // Sets larger than the bin count, so OPH fills nearly every bin
        // with a genuine minimum and its estimator variance matches the
        // k-mins binomial variance. One shared tolerance — ~5.7 binomial
        // standard deviations at len = 128 — gates both signers.
        const LEN: usize = 128;
        const TOL: f64 = 0.25;
        let truth = exact_jaccard(&a, &b);
        for kind in [SignerKind::KMins, SignerKind::Oph] {
            let scheme = SignatureScheme::new(LEN).unwrap().with_seed(seed).with_kind(kind);
            let est = scheme.sign(&a).jaccard_estimate(&scheme.sign(&b));
            prop_assert!(
                (est - truth).abs() < TOL,
                "{kind}: estimate {est:.4} vs exact {truth:.4} (seed {seed})"
            );
        }
    }

    #[test]
    fn oph_densification_handles_degenerate_sets(
        values in sets(0, 6),
        len in 8usize..100,
        seed in 0u64..1_000,
    ) {
        // Sets far smaller than the bin count leave most bins empty —
        // the regime densification exists for.
        let scheme = SignatureScheme::new(len).unwrap().with_seed(seed).with_kind(SignerKind::Oph);
        let sig = scheme.sign(&values);
        prop_assert_eq!(sig.len(), len);
        if values.is_empty() {
            // Empty set: the sentinel everywhere, J(∅, ∅) = 1.
            prop_assert!(sig.values().iter().all(|&v| v == EMPTY_SET_SENTINEL));
            prop_assert_eq!(sig.jaccard_estimate(&sig), 1.0);
        } else {
            // Non-empty set: densification leaves no empty bin behind,
            // and every position holds the min-hash of some element.
            prop_assert!(sig.values().iter().all(|&v| v != EMPTY_SET_SENTINEL));
            prop_assert_eq!(sig.jaccard_estimate(&sig), 1.0);
            // An empty set never aliases a non-empty one.
            let empty = scheme.sign(&[]);
            prop_assert_eq!(sig.agreement(&empty), 0);
        }
        if values.len() == 1 {
            // Singleton: one filled bin rotated into every position.
            prop_assert!(sig.values().iter().all(|&v| v == sig.values()[0]));
            // Identical singleton signs identically; a disjoint one (a
            // value outside the strategy's universe) collides nowhere.
            prop_assert_eq!(sig.jaccard_estimate(&scheme.sign(&values)), 1.0);
            prop_assert_eq!(sig.jaccard_estimate(&scheme.sign(&[1 << 40])), 0.0);
        }
    }

    #[test]
    fn persisted_indexes_reject_mismatched_query_signers(
        samples in prop::collection::vec(sets(10, 80), 2..8),
        oph_first in any::<bool>(),
        signature_len in 8usize..65,
    ) {
        let (index_kind, query_kind) = if oph_first {
            (SignerKind::Oph, SignerKind::KMins)
        } else {
            (SignerKind::KMins, SignerKind::Oph)
        };
        let collection = SampleCollection::from_sorted_sets(samples).unwrap();
        let config = IndexConfig::default()
            .with_signature_len(signature_len)
            .with_signer(index_kind);
        let options = IndexOptions::from_config(config);
        let index = options.build_index(&collection).unwrap();

        // Round-trip through a container file (cases run one at a time,
        // so one path per process is enough): the signer record survives.
        let path =
            std::env::temp_dir().join(format!("gas_oph_signer_{}.gidx", std::process::id()));
        options.create_writer_at(&path).unwrap().commit_collection(&collection).unwrap();
        let loaded = IndexReader::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.segments(), index.segments());
        prop_assert_eq!(loaded.scheme().kind(), index_kind);

        let engine = QueryEngine::snapshot(loaded.clone());
        let opts = QueryOptions { top_k: 3, ..Default::default() };
        let values = collection.sample(0);

        // A query signed under the index's own scheme is served and
        // answers exactly like inline signing ...
        let good_sig = loaded.scheme().sign(values);
        let served = engine.query_presigned(loaded.scheme(), &good_sig, &opts).unwrap();
        prop_assert_eq!(&served, &engine.query(values, &opts).unwrap());

        // ... while the other signer (same length, same seed) is turned
        // away with the typed mismatch error, not garbage answers.
        let wrong_scheme = loaded.scheme().with_kind(query_kind);
        let wrong_sig = wrong_scheme.sign(values);
        prop_assert!(matches!(
            engine.query_presigned(&wrong_scheme, &wrong_sig, &opts),
            Err(IndexError::SignerMismatch { .. })
        ));
    }
}

#[test]
fn signer_choice_changes_signatures_but_not_serving_quality() {
    // The two signers are different hash families (different signature
    // bytes) over the same statistic: on a family-structured workload
    // both must put a sample's own family at the top.
    let mut samples = Vec::new();
    for f in 0..3u64 {
        let core: Vec<u64> = (f * 10_000..f * 10_000 + 300).collect();
        for m in 0..4u64 {
            let mut s = core.clone();
            s.extend(f * 10_000 + 5_000 + m * 20..f * 10_000 + 5_000 + m * 20 + 20);
            samples.push(s);
        }
    }
    let collection = SampleCollection::from_sets(samples).unwrap();
    let mut per_signer_answers = Vec::new();
    for kind in [SignerKind::KMins, SignerKind::Oph] {
        let config =
            IndexConfig::default().with_signature_len(128).with_threshold(0.4).with_signer(kind);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let engine = QueryEngine::snapshot_with_collection(index.clone(), &collection);
        let opts = QueryOptions { top_k: 4, rerank_exact: true, ..Default::default() };
        for id in 0..collection.n() {
            let got = engine.query(collection.sample(id), &opts).unwrap();
            assert_eq!(got[0].id, id as u32, "{kind}: sample {id} not its own best match");
            let family = (id / 4) * 4;
            for n in &got {
                assert!(
                    (family..family + 4).contains(&(n.id as usize)),
                    "{kind}: sample {id} matched outside its family: {got:?}"
                );
            }
        }
        per_signer_answers.push(index.signature_of(0).unwrap().values().to_vec());
    }
    assert_ne!(
        per_signer_answers[0], per_signer_answers[1],
        "k-mins and OPH must be distinct hash families"
    );
}

#[test]
fn reranked_recall_at_10_holds_for_both_signers() {
    // Six families of twelve: a random 240-value core per family plus 40
    // private values per member, so each sample has eleven genuine
    // neighbours and recall@10 is well defined.
    const TOP_K: usize = 10;
    let mut rng = StdRng::seed_from_u64(42);
    let mut samples = Vec::new();
    for _ in 0..6 {
        let core: Vec<u64> = (0..240).map(|_| rng.random::<u64>()).collect();
        for _ in 0..12 {
            let mut s = core.clone();
            s.extend((0..40).map(|_| rng.random::<u64>()));
            samples.push(s);
        }
    }
    let collection = SampleCollection::from_sets(samples).unwrap();
    // Twelve queries: a random sample with ~10% of its values dropped and
    // twelve noise values added, from their own RNG stream.
    let mut rng = StdRng::seed_from_u64(1337);
    let queries: Vec<Vec<u64>> = (0..12)
        .map(|_| {
            let id = rng.random_range(0..collection.n());
            let mut q: Vec<u64> =
                collection.sample(id).iter().copied().filter(|_| rng.random_bool(0.9)).collect();
            q.extend((0..12).map(|_| rng.random::<u64>()));
            q.sort_unstable();
            q.dedup();
            q
        })
        .collect();
    let exact: Vec<Vec<Neighbor>> =
        queries.iter().map(|q| exact_top_k(&collection, q, TOP_K)).collect();

    for kind in [SignerKind::KMins, SignerKind::Oph] {
        let config =
            IndexConfig::default().with_signature_len(128).with_threshold(0.4).with_signer(kind);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let opts = QueryOptions { top_k: TOP_K, rerank_exact: true, ..Default::default() };
        let answers = QueryEngine::snapshot_with_collection(index, &collection)
            .query_batch(&queries, &opts)
            .unwrap();
        let total: usize = exact.iter().map(Vec::len).sum();
        let hits: usize = answers
            .iter()
            .zip(&exact)
            .map(|(got, want)| want.iter().filter(|n| got.iter().any(|m| m.id == n.id)).count())
            .sum();
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "{kind}: re-ranked recall@{TOP_K} {recall:.4} < 0.9");
    }
}
