//! # gas-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section V), plus
//! the `chaos_drill` fault-injection drill. Every binary prints the same
//! rows/series the paper reports and writes a CSV under `results/`.
//! Timings the repository tracks over time come from the perf ledger
//! (`bench/ledger`), not from these binaries.
//!
//! Absolute times cannot match a 1024-node Stampede2 run, so each
//! experiment reports three things per configuration:
//!
//! 1. **measured** — wall-clock of the real computation at the scale the
//!    host can execute (simulated ranks are threads),
//! 2. **modeled** — the BSP α–β–γ projection at the paper's rank count,
//!    driven by the communication counters the simulator recorded and the
//!    paper's analytic cost model,
//! 3. **projected total** — `time/batch × #batches`, the quantity the
//!    paper's figures plot.

#![forbid(unsafe_code)]

pub mod report;
pub mod scaling;
pub mod workloads;

pub use report::Table;
pub use scaling::{strong_scaling, ScalingPoint, ScalingSpec};
