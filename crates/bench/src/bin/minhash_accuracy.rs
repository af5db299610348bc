//! MinHash accuracy study (the paper's motivating claim).
//!
//! Section I argues that MinHash "often lead\[s\] to inaccurate
//! approximations of d_J for highly similar pairs of sequence sets, and
//! tend\[s\] to be ineffective ... for highly dissimilar sets unless very
//! large sketch sizes are used". This experiment quantifies that: genome
//! pairs are generated at controlled divergences, their exact Jaccard is
//! computed with SimilarityAtScale's machinery, and the MinHash estimate
//! error is reported across sketch sizes.

use gas_bench::report::Table;
use gas_core::minhash::MinHasher;
use gas_genomics::kmer::KmerExtractor;
use gas_genomics::sample::KmerSample;
use gas_genomics::synth::{genome_family, mutate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let k = 21usize;
    let extractor = KmerExtractor::new(k).unwrap();
    let genome_len = 200_000usize;
    // Pair divergences: nearly identical, moderately related, distant.
    let divergences = [0.0005f64, 0.005, 0.02, 0.10, 0.25];
    let sketch_sizes = [64usize, 256, 1024, 8192];

    let mut table = Table::new(
        "MinHash estimate error vs exact Jaccard (k = 21)",
        &["divergence", "exact_jaccard", "s=64", "s=256", "s=1024", "s=8192"],
    );
    let family = genome_family(genome_len, &[], 7).unwrap();
    let ancestor = &family[0];
    let mut rng = StdRng::seed_from_u64(99);
    for &d in &divergences {
        let derived = mutate(ancestor, d, &mut rng);
        let a = KmerSample::from_sequence("a", ancestor, &extractor);
        let b = KmerSample::from_sequence("b", &derived, &extractor);
        let exact = a.jaccard(&b);
        let mut row = vec![format!("{d}"), format!("{exact:.4}")];
        for &s in &sketch_sizes {
            let hasher = MinHasher::new(s).unwrap();
            let est = hasher.sketch(a.kmers()).jaccard_estimate(&hasher.sketch(b.kmers()));
            row.push(format!("{:+.4}", est - exact));
        }
        table.push_row(row);
    }
    table.print();
    let path =
        table.write_csv(gas_bench::report::results_dir(), "minhash_accuracy").expect("write CSV");
    println!("CSV written to {}", path.display());
    println!(
        "\nExpected shape: errors shrink with sketch size, but small sketches misjudge both \
         near-identical pairs (quantization towards 1) and distant pairs (few shared minima) — \
         the paper's motivation for exact distributed Jaccard."
    );
}
