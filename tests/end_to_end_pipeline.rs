//! End-to-end integration test: FASTA text → k-mer samples →
//! SimilarityAtScale → downstream clustering, validated against the
//! brute-force per-pair reference at every step.

use genomeatscale::cluster::hierarchical::{hierarchical_cluster, Linkage};
use genomeatscale::cluster::nj::neighbor_joining;
use genomeatscale::genomics::synth::{mutate, random_genome};
use genomeatscale::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_family() -> Vec<KmerSample> {
    let mut rng = StdRng::seed_from_u64(42);
    let extractor = KmerExtractor::new(15).unwrap();
    let root_a = random_genome(20_000, &mut rng);
    let root_b = random_genome(20_000, &mut rng);
    let genomes = vec![
        ("a0".to_string(), root_a.clone()),
        ("a1".to_string(), mutate(&root_a, 0.01, &mut rng)),
        ("a2".to_string(), mutate(&root_a, 0.05, &mut rng)),
        ("b0".to_string(), root_b.clone()),
        ("b1".to_string(), mutate(&root_b, 0.02, &mut rng)),
    ];
    genomes.into_iter().map(|(name, g)| KmerSample::from_sequence(name, &g, &extractor)).collect()
}

#[test]
fn fasta_roundtrip_preserves_samples() {
    use genomeatscale::genomics::fasta::{FastaRecord, FastaWriter};
    let mut rng = StdRng::seed_from_u64(3);
    let extractor = KmerExtractor::new(13).unwrap();
    let genome = random_genome(5_000, &mut rng);
    let record = FastaRecord::new("g1", genome.clone());
    let mut writer = FastaWriter::new(Vec::new());
    writer.write_record(&record).unwrap();
    let text = writer.into_inner().unwrap();
    let parsed = FastaReader::new(std::io::Cursor::new(text)).read_all().unwrap();
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed[0].seq, genome);
    let direct = KmerSample::from_sequence("g1", &genome, &extractor);
    let via_fasta = KmerSample::from_sequence("g1", &parsed[0].seq, &extractor);
    assert_eq!(direct, via_fasta);
}

#[test]
fn pipeline_matches_per_pair_reference_and_expected_structure() {
    let samples = build_family();
    let collection = SampleCollection::from_kmer_samples(&samples).unwrap();
    let result = similarity_at_scale(&collection, &SimilarityConfig::with_batches(3)).unwrap();
    let s = result.similarity();

    // Matrix values equal the pairwise set computation.
    for i in 0..samples.len() {
        for j in 0..samples.len() {
            let expected = samples[i].jaccard(&samples[j]);
            assert!(
                (s.get(i, j) - expected).abs() < 1e-12,
                "mismatch at ({i}, {j}): {} vs {expected}",
                s.get(i, j)
            );
        }
    }
    // Structure: within-clade similarity above cross-clade similarity.
    assert!(s.get(0, 1) > s.get(0, 3));
    assert!(s.get(3, 4) > s.get(3, 2));
    // Less diverged genomes are more similar.
    assert!(s.get(0, 1) > s.get(0, 2));
}

#[test]
fn downstream_clustering_recovers_the_clades() {
    let samples = build_family();
    let collection = SampleCollection::from_kmer_samples(&samples).unwrap();
    let result = similarity_at_scale(&collection, &SimilarityConfig::default()).unwrap();
    let distances = result.distance();

    let dendrogram = hierarchical_cluster(&distances, Linkage::Average).unwrap();
    let labels = dendrogram.cut(2).unwrap();
    assert_eq!(labels[0], labels[1]);
    assert_eq!(labels[0], labels[2]);
    assert_eq!(labels[3], labels[4]);
    assert_ne!(labels[0], labels[3]);

    let tree = neighbor_joining(&distances, collection.names()).unwrap();
    assert_eq!(tree.leaf_count(), 5);
    let newick = tree.newick();
    for name in collection.names() {
        assert!(newick.contains(name.as_str()));
    }
}

#[test]
fn minhash_estimates_track_the_exact_matrix() {
    let samples = build_family();
    let collection = SampleCollection::from_kmer_samples(&samples).unwrap();
    let exact = jaccard_exact_pairwise(&collection);
    let approx = MinHasher::new(2048).unwrap().approximate_similarity(&collection);
    let err = exact.similarity().max_abs_diff(&approx).unwrap();
    assert!(err < 0.08, "MinHash with a large sketch should track the exact values, err = {err}");
}

#[test]
fn sorted_kmer_files_reproduce_the_in_memory_pipeline() {
    use std::fs::File;
    use std::io::BufReader;
    let samples = build_family();
    let dir = std::env::temp_dir().join(format!("gas_e2e_kmer_files_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The files GenomeAtScale's preprocessing emits: one sorted k-mer
    // file per sample, written here through an unbuffered `File`.
    for s in &samples {
        s.write_sorted(File::create(dir.join(format!("{}.kmers", s.name()))).unwrap()).unwrap();
    }
    let read: Vec<KmerSample> = samples
        .iter()
        .map(|s| {
            let file = File::open(dir.join(format!("{}.kmers", s.name()))).unwrap();
            KmerSample::read_sorted(s.name(), BufReader::new(file)).unwrap()
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(read, samples);

    let from_files = SampleCollection::from_kmer_samples(&read).unwrap();
    let in_memory = SampleCollection::from_kmer_samples(&samples).unwrap();
    assert_eq!(from_files, in_memory);
    let config = SimilarityConfig::with_batches(3);
    assert_eq!(
        similarity_at_scale(&from_files, &config).unwrap(),
        similarity_at_scale(&in_memory, &config).unwrap()
    );
}
