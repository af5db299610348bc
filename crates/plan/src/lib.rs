//! `gas-plan`: cost-model-driven segment placement and knob autotuning.
//!
//! The paper's communication cost model used to be a figure-generator;
//! this crate makes it load-bearing. Two cooperating halves:
//!
//! - [`placement`]: a [`PlacementPlanner`] prices each index segment's
//!   two serving strategies — sharded (fetch candidate rows per batch
//!   through the keyed exchange) versus replicated (install once, serve
//!   locally) — against α–β–γ machine parameters and observed probe
//!   heat, and emits a [`PlacementPlan`] that
//!   `gas_index::dist::install_placement` installs as the
//!   `ServingLayout` the distributed executor serves
//!   (`gas_index::dist::dist_query_reader_batch_planned`).
//! - [`autotune`]: an [`Autotuner`] chooses the SUMMA grid `(r, q, c)`,
//!   the LSH `(b, r)` split, the OPH signature length, and the
//!   compaction tier factor from the same machine parameters plus the
//!   bench JSON reports.
//!
//! Machine parameters come from [`MachineParams`]: a preset, or the
//! measured least-squares fit the `cost_model_scaling` bench writes to
//! `results/machine_params.json` ([`MachineParams::from_report`]).
//!
//! Planner decisions are observable under the `gas_plan_*` metrics
//! namespace (via `gas-obs`): the serving stack bumps
//! `gas_plan_segment_probes_total` / `gas_plan_segment_candidates_total`
//! and their per-segment `..._seg<id>_total` variants on every probe;
//! the planner and tuner record `gas_plan_plans_total`,
//! `gas_plan_replicated_segments`, `gas_plan_sharded_segments`,
//! `gas_plan_tunes_total` and the `gas_plan_tuned_*` gauges.

#![forbid(unsafe_code)]

pub mod autotune;
pub mod error;
pub mod machine;
pub mod placement;
pub mod report;

pub use autotune::{Autotuner, GridChoice, LshChoice, TunedConfig, WorkloadProfile};
pub use error::{PlanError, PlanResult};
pub use machine::MachineParams;
pub use placement::{
    PlacementPlan, PlacementPlanner, PlannerConfig, SegmentAssignment, SegmentObservation,
};
pub use report::{field, number, read_report_rows, ReportRow};
