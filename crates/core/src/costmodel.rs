//! The paper's analytic BSP cost model (Section III-C).
//!
//! The paper prices one batch of its algorithm as
//!
//! ```text
//! T(z, n, M, c, p) = O( (1 + z/(M√(cp)))·α
//!                     + (z/√(cp) + c·n²/p + p)·β
//!                     + (F/p)·γ )
//! ```
//!
//! and shows that, with the batch sized to fill memory, strong scaling
//! keeps a constant parallel efficiency (`E_p = O(1)`).
//! [`PaperCostModel`] evaluates that formula on a concrete α–β–γ machine.
//! The β term's word count is [`ProjectionInput::bandwidth_words`], which
//! `tests/paper_evaluation.rs` holds the simulator's exact per-rank bytes
//! against across rectangular grids.

use gas_dstsim::cost::CostModel;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};

/// Problem/machine parameters for one projected configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectionInput {
    /// Number of data samples `n`.
    pub n_samples: usize,
    /// Total multiply-accumulate operations `G` of the full product.
    pub total_flops: f64,
    /// Number of ranks `p`.
    pub ranks: usize,
    /// Words of memory per rank `M` (elements, not bytes).
    pub mem_words_per_rank: f64,
    /// Replication factor `c`.
    pub replication: usize,
}

impl ProjectionInput {
    /// Words the busiest rank moves for a batch of `z` nonzeros: the β
    /// term `z/√(cp) + c·n²/p + p` of the paper's per-batch cost.
    pub fn bandwidth_words(&self, z: f64) -> f64 {
        let p = self.ranks as f64;
        let c = self.replication.max(1) as f64;
        let n = self.n_samples as f64;
        z / (c * p).sqrt() + c * n * n / p + p
    }
}

/// The analytic cost model: the paper's formulas evaluated with a concrete
/// α–β–γ machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperCostModel {
    /// The α–β–γ machine parameters (β interpreted per word of 8 bytes).
    pub machine: CostModel,
}

impl PaperCostModel {
    /// Wrap a machine cost model.
    pub fn new(machine: CostModel) -> Self {
        PaperCostModel { machine }
    }

    /// β per machine word (the analysis counts words, the machine model
    /// counts bytes).
    fn beta_word(&self) -> f64 {
        self.machine.beta * 8.0
    }

    /// Per-batch BSP cost `T(z, n, M, c, p)` for a batch with `z`
    /// nonzeros and `flops` multiply-accumulate operations.
    pub fn batch_cost(&self, z: f64, input: &ProjectionInput, flops: f64) -> CoreResult<f64> {
        let p = input.ranks as f64;
        let c = input.replication.max(1) as f64;
        let m_words = input.mem_words_per_rank;
        // A NaN memory size compares false both ways, so test for the
        // valid range rather than against it.
        if p < 1.0 || !(m_words.is_finite() && m_words > 0.0) {
            return Err(CoreError::InvalidConfig(format!(
                "projection needs at least one rank and a finite positive memory size \
                 (got {} ranks, {m_words} words)",
                input.ranks
            )));
        }
        let latency_terms = 1.0 + z / (m_words * (c * p).sqrt());
        let compute = flops / p;
        Ok(latency_terms * self.machine.alpha
            + input.bandwidth_words(z) * self.beta_word()
            + compute * self.machine.gamma)
    }

    /// Strong-scaling parallel efficiency `E_p`: the ratio of the cost of
    /// processing a base batch on `p0` ranks to the cost of processing a
    /// `p/p0`-times larger batch on `p` ranks with proportional
    /// replication (the paper shows this is `O(1)`).
    pub fn strong_scaling_efficiency(
        &self,
        base: &ProjectionInput,
        scaled_ranks: usize,
    ) -> CoreResult<f64> {
        if scaled_ranks < base.ranks || base.ranks == 0 {
            return Err(CoreError::InvalidConfig(
                "scaled rank count must be at least the base rank count".to_string(),
            ));
        }
        let factor = scaled_ranks as f64 / base.ranks as f64;
        let base_z = base.mem_words_per_rank * base.ranks as f64;
        let base_flops = base.total_flops;
        let t0 = self.batch_cost(base_z, base, base_flops)?;
        let scaled = ProjectionInput {
            ranks: scaled_ranks,
            replication: ((base.replication as f64 * factor).round() as usize).max(1),
            ..*base
        };
        let t1 = self.batch_cost(base_z * factor, &scaled, base_flops * factor)?;
        Ok(t0 / t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gas_dstsim::machine::Machine;

    fn model() -> PaperCostModel {
        PaperCostModel::new(Machine::stampede2_knl().cost_model().unwrap())
    }

    fn base_input() -> ProjectionInput {
        ProjectionInput {
            n_samples: 2580,
            total_flops: 5.0e12,
            ranks: 32,
            mem_words_per_rank: 3.0e8,
            replication: 1,
        }
    }

    #[test]
    fn batch_cost_decreases_with_more_ranks() {
        let m = model();
        let small = base_input();
        let mut large = base_input();
        large.ranks = 1024;
        let z = 1.0e8;
        let flops = 1.0e10;
        let t_small = m.batch_cost(z, &small, flops).unwrap();
        let t_large = m.batch_cost(z, &large, flops).unwrap();
        assert!(t_large < t_small);
    }

    #[test]
    fn replication_reduces_bandwidth_term() {
        let m = model();
        let input_c1 = ProjectionInput { replication: 1, ..base_input() };
        let input_c4 = ProjectionInput { replication: 4, ..base_input() };
        let z = 5.0e8;
        // With c > 1 the z/sqrt(cp) term shrinks; for large z this
        // dominates the added c·n²/p term.
        let t1 = m.batch_cost(z, &input_c1, 1.0e10).unwrap();
        let t4 = m.batch_cost(z, &input_c4, 1.0e10).unwrap();
        assert!(t4 < t1);
    }

    #[test]
    fn strong_scaling_efficiency_is_near_constant() {
        let m = model();
        let base = base_input();
        let e2 = m.strong_scaling_efficiency(&base, 64).unwrap();
        let e16 = m.strong_scaling_efficiency(&base, 512).unwrap();
        // The paper proves E_p = O(1); allow a generous constant band.
        assert!(e2 > 0.3 && e2 < 3.0, "E_2 = {e2}");
        assert!(e16 > 0.3 && e16 < 3.0, "E_16 = {e16}");
        assert!(m.strong_scaling_efficiency(&base, 16).is_err());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let m = model();
        let mut bad = base_input();
        bad.ranks = 0;
        assert!(m.batch_cost(1.0, &bad, 1.0).is_err());
        for words in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad = ProjectionInput { mem_words_per_rank: words, ..base_input() };
            assert!(m.batch_cost(1.0, &bad, 1.0).is_err(), "M = {words}");
            assert!(m.strong_scaling_efficiency(&bad, 64).is_err(), "M = {words}");
        }
    }
}
