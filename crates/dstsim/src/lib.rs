//! # gas-dstsim — a distributed-memory runtime simulator
//!
//! The SimilarityAtScale paper (Besta et al., IPDPS 2020) runs on up to
//! 1024 Stampede2 nodes with MPI. Mature MPI bindings are not available in
//! this reproduction environment, so this crate provides the substrate the
//! algorithm needs:
//!
//! * a **runtime** that executes `p` ranks as OS threads, each with its own
//!   address space discipline (ranks only exchange data through explicit
//!   messages),
//! * an MPI-like **communicator** with typed point-to-point messages and
//!   the **collectives** the paper's algorithm and the sharded index use
//!   (barrier, broadcast, reduce, allreduce, gather, allgather),
//!   implemented with realistic algorithms (dissemination, binomial trees,
//!   rings) so message and byte counts match what a real MPI library
//!   would produce,
//! * the **processor grid** `r × q × c` with row, column and fiber
//!   sub-communicators — the paper's 2.5D sparse matrix multiplication
//!   layout, with rectangular layers so every rank count is used,
//! * a **BSP α–β–γ cost model**: every send, receive, collective and local
//!   arithmetic operation is charged to a per-rank [`cost::CostTracker`],
//!   and a [`cost::CostModel`] turns those counters into projected times
//!   for a target machine (e.g. a Stampede2-like KNL cluster with
//!   Omni-Path), including larger scales than the host can run natively.
//!
//! Every collective opens a `gas_obs` span; the crate re-exports
//! `gas_obs` as [`obs`] so the crates built on it (the paper path's
//! drivers and SUMMA) open their phase spans through the same edge.
//!
//! The simulator runs the *real* algorithm — data genuinely moves between
//! ranks and results are bit-exact — while the cost model reproduces the
//! communication/synchronization behaviour the paper's evaluation is about.
//!
//! ## Example
//!
//! ```
//! use gas_dstsim::runtime::Runtime;
//!
//! // Sum rank ids with an allreduce across 4 simulated ranks.
//! let runtime = Runtime::new(4);
//! let out = runtime
//!     .run(|ctx| {
//!         let mine = vec![ctx.rank() as u64];
//!         ctx.world().allreduce_sum(&mine).unwrap()
//!     })
//!     .unwrap();
//! assert!(out.results.iter().all(|v| v[0] == 0 + 1 + 2 + 3));
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod error;
pub mod faults;
pub mod machine;
pub mod runtime;
pub mod topology;

pub use comm::Communicator;
pub use cost::{CostModel, CostReport, CostTracker};
pub use error::{SimError, SimResult};
pub use faults::RankFaults;
pub use gas_obs as obs;
pub use machine::Machine;
pub use runtime::{RankCtx, RunOutput, Runtime};
pub use topology::ProcessorGrid;
