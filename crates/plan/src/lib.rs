//! `gas-plan`: cost-model-driven segment placement.
//!
//! The paper's communication cost model prices one serving decision
//! here. A [`PlacementPlanner`] prices each index segment's two serving
//! strategies — sharded (fetch candidate rows per batch through the
//! keyed exchange) versus replicated (install once, serve locally) —
//! against α–β–γ machine parameters and the probe heat each segment
//! reports through `IndexReader::segment_stats`, and emits a
//! [`PlacementPlan`] that `gas_index::dist::install_placement` installs
//! as the `ServingLayout` the distributed executor serves
//! (`gas_index::dist::dist_query_reader_batch_planned`).
//!
//! The planner is a library its caller drives: observe, plan, install,
//! serve (`tests/query_serving.rs` runs that loop on a skewed fixture).
//! Nothing re-plans while serving.
//!
//! Machine parameters come from [`MachineParams`]: a machine preset, or
//! any [`CostModel`](gas_dstsim::cost::CostModel) — for instance the
//! least-squares fit `gas_core::costmodel::fit_cost_model` returns.
//!
//! Decisions are observable under the `gas_plan_*` metrics namespace
//! (via `gas-obs`): the serving stack bumps the bounded aggregates
//! `gas_plan_segment_probes_total` / `gas_plan_segment_candidates_total`
//! on every probe pass, and the planner records `gas_plan_plans_total`,
//! `gas_plan_replicated_segments` and `gas_plan_sharded_segments`.

#![forbid(unsafe_code)]

pub mod error;
pub mod machine;
pub mod placement;

pub use error::{PlanError, PlanResult};
pub use machine::MachineParams;
pub use placement::{
    PlacementPlan, PlacementPlanner, PlannerConfig, SegmentAssignment, SegmentObservation,
};
