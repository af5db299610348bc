//! Machine parameters for planning: α–β–γ plus memory and streaming
//! bandwidth, loadable from the fitted report the `cost_model_scaling`
//! bench writes.
//!
//! The planner never hardcodes machine constants: it takes a
//! [`MachineParams`], which comes from one of three places — a
//! [`Machine`](gas_dstsim::machine::Machine) preset
//! ([`MachineParams::from_machine`]), a raw
//! [`CostModel`](gas_dstsim::cost::CostModel), or the
//! `results/machine_params.json` report of measured, least-squares-fitted
//! parameters ([`MachineParams::from_report`]). The report path closes
//! the loop the ROADMAP called out: the cost model stops being a
//! figure-generator and becomes the measured input of placement
//! decisions.

use std::path::Path;

use gas_dstsim::cost::CostModel;
use gas_dstsim::machine::Machine;
use serde::{Deserialize, Serialize};

use crate::error::{PlanError, PlanResult};
use crate::report::{number, read_report_rows};

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
    /// Where the parameters came from (a preset name or a report path) —
    /// carried into reports so a plan states its evidence.
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

    /// The paper's Stampede2 KNL machine — the default when no fitted
    /// report is available.
    pub fn paper_machine() -> Self {
        Self::from_machine(&Machine::stampede2_knl()).expect("paper preset is valid")
    }

    /// Load measured parameters from the JSON report written by the
    /// `cost_model_scaling` bench (`results/machine_params.json`): a
    /// single row with `alpha`/`beta`/`gamma`/`mem_per_rank`/`stream_bw`
    /// fields holding the least-squares fit over simulated runs.
    pub fn from_report(path: impl AsRef<Path>) -> PlanResult<Self> {
        let path = path.as_ref();
        let rows = read_report_rows(path)?;
        let row = rows.first().ok_or_else(|| {
            PlanError::Parse(format!("{}: machine-parameter report has no rows", path.display()))
        })?;
        let params = MachineParams {
            alpha: number(row, "alpha")?,
            beta: number(row, "beta")?,
            gamma: number(row, "gamma")?,
            mem_per_rank: number(row, "mem_per_rank")? as usize,
            stream_bw: number(row, "stream_bw")?,
            source: path.display().to_string(),
        };
        params.validate()?;
        Ok(params)
    }

    /// Load from a report if it exists and parses, otherwise fall back to
    /// the paper machine — the pattern the bench binaries use so a fresh
    /// checkout (no `results/` yet) still plans.
    pub fn from_report_or_paper(path: impl AsRef<Path>) -> Self {
        Self::from_report(path).unwrap_or_else(|_| Self::paper_machine())
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
    fn from_report_reads_the_fitted_row() {
        let dir = std::env::temp_dir().join("gas_plan_machine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("machine_params.json");
        std::fs::write(
            &path,
            "{\n  \"title\": \"fitted machine parameters\",\n  \"rows\": [\n    {\"alpha\": 0.000002, \"beta\": 0.00000000008, \"gamma\": 0.000000001, \"mem_per_rank\": 3221225472, \"stream_bw\": 14000000000, \"observations\": 12}\n  ]\n}\n",
        )
        .unwrap();
        let p = MachineParams::from_report(&path).unwrap();
        assert!((p.alpha - 2.0e-6).abs() < 1e-18);
        assert!((p.beta - 8.0e-11).abs() < 1e-18);
        assert_eq!(p.mem_per_rank, 3 * (1usize << 30));
        assert!(p.source.ends_with("machine_params.json"));
        // The fallback loader prefers the report when it is readable…
        let fb = MachineParams::from_report_or_paper(&path);
        assert_eq!(fb.alpha, p.alpha);
        // …and degrades to the paper machine when it is not.
        let fb = MachineParams::from_report_or_paper(dir.join("missing.json"));
        assert_eq!(fb.source, "stampede2-knl");
    }

    #[test]
    fn invalid_reports_and_params_are_rejected() {
        let dir = std::env::temp_dir().join("gas_plan_machine_bad_test");
        std::fs::create_dir_all(&dir).unwrap();
        let empty = dir.join("empty_rows.json");
        std::fs::write(&empty, "{\n  \"title\": \"t\",\n  \"rows\": []\n}\n").unwrap();
        assert!(matches!(MachineParams::from_report(&empty), Err(PlanError::Parse(_))));
        let negative = dir.join("negative.json");
        std::fs::write(
            &negative,
            "{\n  \"title\": \"t\",\n  \"rows\": [\n    {\"alpha\": -1, \"beta\": 1, \"gamma\": 1, \"mem_per_rank\": 1, \"stream_bw\": 1}\n  ]\n}\n",
        )
        .unwrap();
        assert!(matches!(MachineParams::from_report(&negative), Err(PlanError::InvalidConfig(_))));
        let mut p = MachineParams::paper_machine();
        p.mem_per_rank = 0;
        assert!(p.validate().is_err());
    }
}
