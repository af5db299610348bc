//! # gas-index — persistent MinHash–LSH sketch index + top-k query engine
//!
//! The paper's pipeline answers *all-pairs* similarity; this crate turns
//! the same sketches into a *served* workload, the Mash/BIGSI-style
//! sketch-database shape the paper benchmarks against (Table II): build
//! an index, persist it, shard it, grow and shrink it in place, and
//! answer batched top-k similarity queries against it. Layers:
//!
//! * [`params`] — LSH banding parameters `(b, r)` derived from a target
//!   Jaccard threshold (the `1 − (1 − j^r)^b` S-curve);
//! * [`segment`] / [`lifecycle`] — the segmented index lifecycle:
//!   immutable sealed [`segment::Segment`]s of signatures + bucket
//!   tables, written by an [`lifecycle::IndexWriter`] (stage → `commit`
//!   seals a segment; deletes become tombstones), read through atomic
//!   [`lifecycle::IndexReader`] snapshots, and rolled up by a
//!   size-tiered [`lifecycle::Compactor`] that drops tombstoned rows;
//! * [`build`] — the [`build::IndexConfig`] an index is built under and
//!   the per-band [`build::BandBuckets`] tables segments hold;
//! * [`container`] — a self-describing, versioned, checksummed binary
//!   container with a bounds-checked reader — persistence without
//!   serde: one format, an append-only block stream whose
//!   generation-numbered manifest is written last, so a crash
//!   mid-commit falls back to the previous generation;
//! * [`query`] / [`dist`] — the batched top-k engine: probe buckets in
//!   every live segment, score candidates in parallel (rayon map +
//!   reduce), merge across segments deterministically (tombstones
//!   honored, score ties keep the lowest sample id), optionally re-rank
//!   exactly (a merge-join per candidate over the query's rows); the distributed
//!   variant shards bands *and* signature rows per segment across
//!   `gas_dstsim` ranks (each rank stores `~rows/p` of every segment
//!   and fetches only the rows its probes touch) and merges per-rank
//!   partial top-k lists into answers bit-identical to the single-rank
//!   multi-segment reader.
//!
//! Signatures come from one of two signers ([`SignerKind`]): classical
//! k-mins (`O(len·|set|)` hashes) or one-permutation hashing with
//! rotation densification (`O(|set| + len)`); the container records the
//! signer so persisted indexes stay self-describing.
//!
//! Construction goes through one builder, [`service::IndexOptions`], and
//! there is one index value, the [`lifecycle::IndexReader`] snapshot — a
//! one-shot build is simply a writer's first commit:
//!
//! ```
//! use gas_core::indicator::SampleCollection;
//! use gas_index::{IndexOptions, QueryEngine, QueryOptions};
//!
//! let collection = SampleCollection::from_sorted_sets(vec![
//!     (0..500u64).collect(),
//!     (50..550u64).collect(),
//!     (10_000..10_500u64).collect(),
//! ]).unwrap();
//! let index = IndexOptions::new().build_index(&collection).unwrap();
//! let engine = QueryEngine::snapshot_with_collection(index, &collection);
//! let opts = QueryOptions { top_k: 2, rerank_exact: true, ..Default::default() };
//! let hits = engine.query(collection.sample(0), &opts).unwrap();
//! assert_eq!(hits[0].id, 0);          // a sample is its own best match
//! assert_eq!(hits[1].id, 1);          // its 90%-overlap twin is next
//! assert!(hits[1].score > 0.8);
//! ```
//!
//! Growing corpora use the explicit lifecycle instead — commits cost
//! only the delta, snapshots are atomic, answers stay bit-identical to
//! a full rebuild:
//!
//! ```
//! use gas_index::{IndexOptions, QueryEngine, QueryOptions};
//!
//! let mut writer = IndexOptions::new().open_writer().unwrap();
//! writer.add("base", (0..500u64).collect()).unwrap();
//! writer.commit().unwrap();                       // seals segment 1
//! writer.add("twin", (50..550u64).collect()).unwrap();
//! writer.commit().unwrap();                       // seals segment 2
//! let engine = QueryEngine::snapshot(writer.reader());
//! let opts = QueryOptions { top_k: 2, ..Default::default() };
//! let hits = engine.query(&(0..500u64).collect::<Vec<_>>(), &opts).unwrap();
//! assert_eq!(hits[0].id, 0);
//! assert_eq!(hits[1].id, 1);
//! ```
//!
//! Served workloads wrap the lifecycle in the [`service`] layer: a
//! [`service::LocalIndexService`] pipelines commits (stage → sign →
//! seal overlapped across threads, generations strictly ordered),
//! compacts in the background under live readers, bounds its queues
//! with typed [`IndexError::Overloaded`] shedding, and answers
//! [`query::PageRequest`]-paginated queries with stable cursors:
//!
//! ```
//! use gas_index::{IndexOptions, IndexService, PageRequest};
//!
//! let service = IndexOptions::new().serve().unwrap();
//! service.add_batch(vec![
//!     ("base".into(), (0..500u64).collect()),
//!     ("twin".into(), (50..550u64).collect()),
//! ]).unwrap();
//! service.commit_wait().unwrap();
//! let pages = service
//!     .query_paged(&[(0..500u64).collect()], &PageRequest::new(1))
//!     .unwrap();
//! assert_eq!(pages[0].hits[0].id, 0);
//! assert!(pages[0].next_cursor.is_some());  // the twin is on page 2
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod container;
pub mod dist;
pub mod error;
pub mod lifecycle;
pub mod params;
pub mod pipeline;
pub mod query;
pub mod segment;
pub mod service;

pub use build::{BandBuckets, IndexConfig};
pub use dist::{
    dist_query_reader_batch, dist_query_reader_batch_planned, dist_query_reader_batch_replicated,
    dist_query_reader_batch_stats, dist_query_reader_batch_stats_per_segment,
    dist_query_reader_page, install_placement, plan_placement, DegradedReport, DistQueryStats,
    PlacementInstallStats, SegmentExchangeStats, SegmentObservation, SegmentPlacement,
    ServingLayout, SignatureShard,
};
pub use error::{IndexError, IndexResult};
pub use gas_chaos::{ChaosStorage, FaultKind, FaultPlan, RealFs, Storage};
pub use gas_core::minhash::SignerKind;
pub use lifecycle::{
    CommitSummary, CompactionPolicy, CompactionSummary, Compactor, IndexReader, IndexWriter,
    RecoveryReport, VacuumReport,
};
pub use params::LshParams;
pub use pipeline::CommitTicket;
pub use query::{
    exact_top_k, Neighbor, PageCursor, PageRequest, QueryEngine, QueryOptions, QueryPage,
};
pub use segment::{Segment, SegmentStats};
pub use service::{
    CompactionStats, DegradedBatch, DegradedCauses, IndexOptions, IndexService, LocalIndexService,
    RequestClassStats, ServiceStats,
};
