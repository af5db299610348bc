//! # gas-cluster — downstream consumers of Jaccard distance matrices
//!
//! The paper motivates exact all-pairs Jaccard matrices by what is built
//! on top of them (Sections II-B through II-G and Fig. 1, steps 7–9):
//! clustering samples, constructing phylogenetic/guide trees, detecting
//! anomalous samples, and re-using the same machinery for graph-vertex and
//! document similarity. This crate implements those downstream
//! applications so the examples and experiments can run the full pipeline
//! end-to-end:
//!
//! * [`hierarchical`] — agglomerative clustering (single / complete /
//!   average-UPGMA linkage) over a distance matrix;
//! * [`nj`] — neighbor-joining tree construction with Newick output (the
//!   guide trees used for multiple sequence alignment);
//! * [`outlier`] — proximity-based anomaly detection;
//! * [`graph`] — the vertex-neighborhood framing of Table III;
//! * [`documents`] — the word-set framing of Table III.

#![forbid(unsafe_code)]

pub mod documents;
pub mod error;
pub mod graph;
pub mod hierarchical;
pub mod nj;
pub mod outlier;

pub use error::{ClusterError, ClusterResult};
pub use hierarchical::{hierarchical_cluster, Dendrogram, Linkage};
pub use nj::{neighbor_joining, PhyloTree};
pub use outlier::knn_outlier_scores;
