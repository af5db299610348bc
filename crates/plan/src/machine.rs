//! Machine parameters for planning: α–β–γ plus memory and streaming
//! bandwidth.
//!
//! The planner never hardcodes machine constants: it takes a
//! [`MachineParams`], which comes from a
//! [`Machine`](gas_dstsim::machine::Machine) preset
//! ([`MachineParams::from_machine`], [`MachineParams::paper_machine`]) or
//! from a raw [`CostModel`](gas_dstsim::cost::CostModel)
//! ([`MachineParams::from_cost_model`]) — for instance the least-squares
//! fit of measured per-rank cost reports that
//! `gas_core::costmodel::fit_cost_model` returns.

use gas_dstsim::cost::CostModel;
use gas_dstsim::machine::Machine;
use serde::{Deserialize, Serialize};

use crate::error::{PlanError, PlanResult};

/// The machine parameters every planning decision is priced against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineParams {
    /// Latency per message / superstep, seconds.
    pub alpha: f64,
    /// Inverse bandwidth, seconds per **byte**.
    pub beta: f64,
    /// Seconds per arithmetic operation.
    pub gamma: f64,
    /// Memory per rank, bytes.
    pub mem_per_rank: usize,
    /// Memory streaming bandwidth per rank, bytes/second.
    pub stream_bw: f64,
    /// Where the parameters came from (a preset name or the provenance
    /// given to [`MachineParams::from_cost_model`]) — carried into
    /// reports so a plan states its evidence.
    pub source: String,
}

impl MachineParams {
    /// Parameters from a machine description's analytic cost model.
    pub fn from_machine(machine: &Machine) -> PlanResult<Self> {
        let model = machine
            .cost_model()
            .map_err(|e| PlanError::InvalidConfig(format!("machine {}: {e}", machine.name)))?;
        Ok(Self::from_cost_model(&model, &machine.name))
    }

    /// Parameters from a raw cost model with a stated provenance.
    pub fn from_cost_model(model: &CostModel, source: &str) -> Self {
        MachineParams {
            alpha: model.alpha,
            beta: model.beta,
            gamma: model.gamma,
            mem_per_rank: model.mem_per_rank,
            stream_bw: model.stream_bw,
            source: source.to_string(),
        }
    }

    /// The paper's Stampede2 KNL machine.
    pub fn paper_machine() -> Self {
        Self::from_machine(&Machine::stampede2_knl()).expect("paper preset is valid")
    }

    /// Reject non-finite or negative parameters.
    pub fn validate(&self) -> PlanResult<()> {
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)] {
            if !v.is_finite() || v < 0.0 {
                return Err(PlanError::InvalidConfig(format!(
                    "machine parameter {name} must be finite and non-negative (got {v})"
                )));
            }
        }
        if self.mem_per_rank == 0 || self.stream_bw.is_nan() || self.stream_bw <= 0.0 {
            return Err(PlanError::InvalidConfig(
                "mem_per_rank and stream_bw must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// The equivalent simulator [`CostModel`].
    pub fn to_cost_model(&self) -> CostModel {
        CostModel {
            alpha: self.alpha,
            beta: self.beta,
            gamma: self.gamma,
            mem_per_rank: self.mem_per_rank,
            stream_bw: self.stream_bw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_presets_round_trip_through_params() {
        let m = Machine::stampede2_knl();
        let p = MachineParams::from_machine(&m).unwrap();
        let model = m.cost_model().unwrap();
        assert_eq!(p.alpha, model.alpha);
        assert_eq!(p.beta, model.beta);
        assert_eq!(p.gamma, model.gamma);
        assert_eq!(p.source, "stampede2-knl");
        assert_eq!(p.to_cost_model(), model);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn invalid_params_are_rejected() {
        let mut negative = MachineParams::paper_machine();
        negative.alpha = -1.0;
        assert!(matches!(negative.validate(), Err(PlanError::InvalidConfig(_))));
        let mut p = MachineParams::paper_machine();
        p.mem_per_rank = 0;
        assert!(p.validate().is_err());
    }
}
