//! The perf ledger of the GenomeAtScale reproduction: four long-run
//! workloads over the paper path (`similarity_at_scale{,_distributed}`)
//! and the serving path (`QueryEngine`, `LocalIndexService`), three
//! end-to-end metrics per workload and the per-layer metrics of a traced
//! run. See `README.md` beside this crate for the tables and the noise
//! study the design follows.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
