//! # gas-genomics — sequence handling for GenomeAtScale
//!
//! GenomeAtScale (the tool built around the SimilarityAtScale algorithm)
//! ingests high-throughput sequencing samples in FASTA format, represents
//! every sample as the set of k-mers it contains, and feeds those sets to
//! the distributed Jaccard computation. This crate provides that
//! front-end plus the synthetic data used by the reproduction:
//!
//! * [`fasta`] — FASTA/FASTQ readers and a FASTA writer;
//! * [`kmer`] — 2-bit k-mer encoding, canonical k-mers (reverse
//!   complements collapse onto one representative), rolling extraction
//!   with `N` handling;
//! * [`sample`] — per-sample k-mer sets with count thresholds (the
//!   "remove rare k-mers" preprocessing of Section V-A2) and the sorted
//!   numerical representation files GenomeAtScale exchanges;
//! * [`synth`] — synthetic genomes, mutated derivatives, short-read
//!   simulation and Bernoulli indicator matrices;
//! * [`datasets`] — scaled-down generators matched to the published
//!   statistics of the Kingsford and BIGSI datasets and the paper's
//!   synthetic workloads (the substitution for the multi-terabyte public
//!   datasets the paper uses).
//!
//! ```
//! use gas_genomics::kmer::KmerExtractor;
//! use gas_genomics::sample::KmerSample;
//!
//! let ex = KmerExtractor::new(5).unwrap();
//! let a = KmerSample::from_sequence("a", b"ACGTACGTACGT", &ex);
//! let b = KmerSample::from_sequence("b", b"ACGTACGTACGA", &ex);
//! let j = a.jaccard(&b);
//! assert!(j > 0.0 && j < 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod datasets;
pub mod error;
pub mod fasta;
pub mod kmer;
pub mod sample;
pub mod synth;

pub use error::{GenomicsError, GenomicsResult};
pub use fasta::{FastaReader, FastaRecord, FastaWriter, FastqReader};
pub use kmer::{Kmer, KmerExtractor};
pub use sample::KmerSample;
