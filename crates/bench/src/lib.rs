//! # gas-bench — experiment binaries and shared workloads
//!
//! Three binaries, each writing its table under `results/`:
//!
//! - `comm_volume` — bytes per rank of SimilarityAtScale against the
//!   allreduce baseline, and of the bitmap zero-row filter against the
//!   index allgather (the paper's communication claim);
//! - `minhash_accuracy` — MinHash estimate error against exact Jaccard
//!   across divergences and sketch sizes (the paper's motivation);
//! - `chaos_drill` — the fault-injection drill CI runs per seed and layer.
//!
//! The paper's Section IV cost analysis and Section V figures are not
//! binaries: `tests/paper_evaluation.rs` asserts them on exact counts,
//! priced with the α–β–γ machine model, on the workloads of
//! [`workloads`]. Timings live in the perf ledger (`bench/ledger`).

#![forbid(unsafe_code)]

pub mod report;
pub mod workloads;

pub use report::Table;
