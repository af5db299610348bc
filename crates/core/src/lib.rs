//! # gas-core — the SimilarityAtScale algorithm
//!
//! This crate implements the primary contribution of Besta et al.,
//! *Communication-Efficient Jaccard Similarity for High-Performance
//! Distributed Genome Comparisons* (IPDPS 2020): an algebraic, batched,
//! communication-avoiding computation of the all-pairs Jaccard similarity
//! matrix.
//!
//! The pipeline follows Listing 1 of the paper:
//!
//! 1. the data samples form an indicator matrix `A ∈ {0,1}^{m×n}`
//!    ([`indicator::SampleCollection`]),
//! 2. `A` is processed in row batches ([`batch::BatchPlan`], Eq. 3),
//! 3. each batch is stripped of all-zero rows ([`filter`], Eqs. 5–6),
//! 4. the surviving rows are packed 64 per machine word ([`mask`]),
//! 5. the intersection counts `B = AᵀA` accumulate over a popcount-AND
//!    semiring product (local Rayon kernel or the distributed 2.5D SUMMA
//!    of `gas-sparse`),
//! 6. the similarity and distance matrices follow from `B` and the
//!    per-sample cardinalities ([`jaccard`], Eq. 2).
//!
//! Drivers live in [`algorithm`]; comparison points in [`minhash`]
//! (Mash-style sketching) and [`baselines`] (exact single-node and
//! allreduce-style distributed schemes); the paper's analytic BSP cost
//! formula (Section III-C) is in [`costmodel`].
//!
//! ```
//! use gas_core::algorithm::similarity_at_scale;
//! use gas_core::config::SimilarityConfig;
//! use gas_core::indicator::SampleCollection;
//!
//! let collection = SampleCollection::from_sorted_sets(vec![
//!     vec![1, 2, 3, 4, 5],
//!     vec![3, 4, 5, 6, 7],
//! ]).unwrap();
//! let result = similarity_at_scale(&collection, &SimilarityConfig::default()).unwrap();
//! assert!((result.similarity().get(0, 1) - 3.0 / 7.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod baselines;
pub mod batch;
pub mod config;
pub mod costmodel;
pub mod error;
pub mod filter;
pub mod indicator;
pub mod jaccard;
pub mod mask;
pub mod minhash;

pub use algorithm::{similarity_at_scale, similarity_at_scale_distributed};
pub use config::SimilarityConfig;
pub use costmodel::{PaperCostModel, ProjectionInput};
pub use error::{CoreError, CoreResult};
pub use indicator::SampleCollection;
pub use jaccard::{jaccard_exact_pairwise, SimilarityResult};
pub use minhash::{MinHashSignature, MinHashSketch, MinHasher, SignatureScheme};
