//! # GenomeAtScale (Rust reproduction)
//!
//! Facade crate re-exporting the full SimilarityAtScale / GenomeAtScale
//! stack described in Besta et al., *Communication-Efficient Jaccard
//! Similarity for High-Performance Distributed Genome Comparisons*
//! (IPDPS 2020).
//!
//! The workspace is organised as:
//!
//! * [`dstsim`] — a distributed-memory runtime simulator (ranks as threads,
//!   MPI-style collectives, BSP α–β–γ cost accounting, processor grids).
//! * [`sparse`] — sparse matrix formats, semirings, local and distributed
//!   sparse matrix–matrix multiplication (the Cyclops substitute).
//! * [`genomics`] — FASTA/FASTQ ingestion, k-mer extraction, synthetic
//!   dataset generators.
//! * [`core`] — the SimilarityAtScale algorithm itself (batching, zero-row
//!   filtering, bitmask compression, popcount-AND semiring products,
//!   Jaccard similarity/distance matrices), plus MinHash and allreduce
//!   baselines and the paper's analytic BSP cost model.
//! * [`cluster`] — downstream applications: hierarchical clustering,
//!   neighbor-joining guide trees, outlier detection.
//! * [`index`] — the persistent MinHash–LSH sketch index and its batched
//!   top-k query engine (build / persist / query / distribute), the
//!   query-serving counterpart of the all-pairs pipeline — now a full
//!   segmented lifecycle (`IndexWriter` → `IndexReader` → `Compactor`)
//!   with incremental adds, tombstoned deletes, snapshot reads and
//!   crash-safe multi-segment persistence — and its cost-model-driven
//!   segment placement (`index::dist::plan_placement`: replicate hot,
//!   shard fresh, priced against a [`dstsim::cost::CostModel`] and the
//!   probe heat each segment reports through `segment_stats()`; see
//!   README § Placement).
//! * [`obs`] — structured tracing spans, the unified metrics registry and
//!   the Prometheus/JSON/folded-stacks exporters instrumenting the
//!   serve/commit/compact/dist hot paths and the paper path: both
//!   SimilarityAtScale drivers emit `paper`-phase spans per batch, SUMMA
//!   step, reduce and gather (see README § Observability).
//!
//! ## Quickstart
//!
//! ```
//! use genomeatscale::prelude::*;
//!
//! // Three tiny "genomes" as sets of k-mer codes.
//! let samples = vec![
//!     vec![1u64, 2, 3, 4, 5],
//!     vec![3u64, 4, 5, 6, 7],
//!     vec![100u64, 200, 300],
//! ];
//! let collection = SampleCollection::from_sorted_sets(samples).unwrap();
//! let config = SimilarityConfig::default();
//! let result = similarity_at_scale(&collection, &config).unwrap();
//! let s = result.similarity();
//! assert!((s.get(0, 1) - 3.0 / 7.0).abs() < 1e-12);
//! assert_eq!(s.get(0, 2), 0.0);
//! assert_eq!(s.get(2, 2), 1.0);
//! ```

#![forbid(unsafe_code)]

pub use gas_chaos as chaos;
pub use gas_cluster as cluster;
pub use gas_core as core;
pub use gas_dstsim as dstsim;
pub use gas_genomics as genomics;
pub use gas_index as index;
pub use gas_obs as obs;
pub use gas_sparse as sparse;

/// Commonly used types and entry points for the whole stack.
pub mod prelude {
    pub use gas_cluster::hierarchical::{hierarchical_cluster, Linkage};
    pub use gas_cluster::nj::neighbor_joining;
    pub use gas_core::algorithm::{similarity_at_scale, similarity_at_scale_distributed};
    pub use gas_core::config::SimilarityConfig;
    pub use gas_core::indicator::SampleCollection;
    pub use gas_core::jaccard::{jaccard_exact_pairwise, SimilarityResult};
    pub use gas_core::minhash::{MinHashSketch, MinHasher};
    pub use gas_dstsim::cost::CostModel;
    pub use gas_dstsim::machine::Machine;
    pub use gas_dstsim::runtime::Runtime;
    pub use gas_genomics::fasta::FastaReader;
    pub use gas_genomics::kmer::KmerExtractor;
    pub use gas_genomics::sample::KmerSample;
    pub use gas_index::{
        dist_query_reader_batch, dist_query_reader_batch_planned,
        dist_query_reader_batch_replicated, dist_query_reader_batch_stats,
        dist_query_reader_batch_stats_per_segment, dist_query_reader_page, exact_top_k,
        install_placement, plan_placement, ChaosStorage, CommitSummary, CommitTicket,
        CompactionPolicy, CompactionStats, CompactionSummary, Compactor, DegradedBatch,
        DegradedCauses, DegradedReport, DistQueryStats, FaultKind, FaultPlan, IndexConfig,
        IndexOptions, IndexReader, IndexService, IndexWriter, LocalIndexService, LshParams,
        Neighbor, PageCursor, PageRequest, PlacementInstallStats, QueryEngine, QueryOptions,
        QueryPage, RequestClassStats, SegmentObservation, SegmentPlacement, SegmentStats,
        ServiceStats, ServingLayout, SignerKind, VacuumReport,
    };
    pub use gas_obs::{
        collective_cost_report, folded_stacks, render_collective_costs, to_prometheus,
        trace_to_json, LatencyHistogram, MetricsSnapshot, TraceEvent,
    };
    pub use gas_sparse::dense::DenseMatrix;
}
