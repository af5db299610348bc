//! Machine descriptions: node and network parameters for cost projection.
//!
//! The paper evaluates on Stampede2: Intel Xeon Phi 7250 (KNL) nodes with
//! 68 cores, 96 GB DDR4 plus 16 GB MCDRAM (configurable as a direct-mapped
//! L3 cache or as flat memory), connected by a 100 Gb/s Omni-Path fat
//! tree, running 32 MPI processes per node. A [`Machine`] captures the
//! parameters of such a system that matter for the BSP cost model and
//! produces the corresponding [`CostModel`] for a given rank layout.

use crate::cost::CostModel;
use crate::error::{SimError, SimResult};
use serde::{Deserialize, Serialize};

/// Description of a target distributed-memory machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Number of physical cores per node.
    pub cores_per_node: usize,
    /// MPI-style ranks launched per node (the paper uses 32 on KNL).
    pub ranks_per_node: usize,
    /// DRAM per node in bytes.
    pub mem_per_node: usize,
    /// Network latency per message / superstep, seconds.
    pub net_latency: f64,
    /// Network injection bandwidth per node, bytes/second.
    pub net_bandwidth: f64,
    /// Effective scalar arithmetic rate per rank, ops/second.
    pub flops_per_rank: f64,
    /// Memory streaming bandwidth per rank when the fast on-package memory
    /// (MCDRAM) acts as a cache, bytes/second.
    pub stream_bw_cached: f64,
    /// Memory streaming bandwidth per rank without the fast cache (flat /
    /// DDR-only mode), bytes/second.
    pub stream_bw_flat: f64,
    /// Whether MCDRAM (or the equivalent fast memory) is used as a cache.
    pub mcdram_cache: bool,
}

impl Machine {
    /// A Stampede2-like KNL cluster node: 68 cores, 96 GB DDR4, 16 GB
    /// MCDRAM, 100 Gb/s Omni-Path, 32 ranks per node (the configuration
    /// used throughout the paper's evaluation).
    pub fn stampede2_knl() -> Self {
        Machine {
            name: "stampede2-knl".to_string(),
            cores_per_node: 68,
            ranks_per_node: 32,
            mem_per_node: 96 * (1usize << 30),
            net_latency: 2.0e-6,
            // 100 Gb/s = 12.5 GB/s injection per node.
            net_bandwidth: 12.5e9,
            // KNL scalar-ish effective rate per rank for irregular sparse
            // kernels (popcount/AND over CSR) — deliberately modest.
            flops_per_rank: 1.2e9,
            // ~450 GB/s MCDRAM vs ~90 GB/s DDR4 per node, divided by ranks.
            stream_bw_cached: 450.0e9 / 32.0,
            stream_bw_flat: 90.0e9 / 32.0,
            mcdram_cache: true,
        }
    }

    /// A small commodity workstation (useful for local experiments and to
    /// contrast against the cluster model).
    pub fn laptop() -> Self {
        Machine {
            name: "laptop".to_string(),
            cores_per_node: 8,
            ranks_per_node: 8,
            mem_per_node: 16 * (1usize << 30),
            net_latency: 0.5e-6,
            net_bandwidth: 20.0e9,
            flops_per_rank: 2.0e9,
            stream_bw_cached: 30.0e9 / 8.0,
            stream_bw_flat: 30.0e9 / 8.0,
            mcdram_cache: true,
        }
    }

    /// Return a copy with MCDRAM-as-cache enabled or disabled
    /// (the Section V-D study).
    pub fn with_mcdram_cache(mut self, enabled: bool) -> Self {
        self.mcdram_cache = enabled;
        self
    }

    /// Memory available to each rank, in bytes.
    pub fn mem_per_rank(&self) -> usize {
        self.mem_per_node / self.ranks_per_node.max(1)
    }

    /// Build the α–β–γ [`CostModel`] for this machine.
    ///
    /// β is derived from the per-node injection bandwidth divided across
    /// the ranks sharing the NIC; γ from the effective per-rank arithmetic
    /// rate; the streaming bandwidth depends on the MCDRAM mode.
    pub fn cost_model(&self) -> SimResult<CostModel> {
        if self.ranks_per_node == 0 || self.cores_per_node == 0 {
            return Err(SimError::InvalidConfig(
                "ranks_per_node and cores_per_node must be positive".to_string(),
            ));
        }
        if self.net_bandwidth <= 0.0 || self.flops_per_rank <= 0.0 {
            return Err(SimError::InvalidConfig(
                "bandwidth and flop rate must be positive".to_string(),
            ));
        }
        let model = CostModel {
            alpha: self.net_latency,
            beta: self.ranks_per_node as f64 / self.net_bandwidth,
            gamma: 1.0 / self.flops_per_rank,
            mem_per_rank: self.mem_per_rank(),
            stream_bw: if self.mcdram_cache { self.stream_bw_cached } else { self.stream_bw_flat },
        };
        model.validate()?;
        Ok(model)
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::stampede2_knl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stampede2_preset_matches_paper_configuration() {
        let m = Machine::stampede2_knl();
        assert_eq!(m.cores_per_node, 68);
        assert_eq!(m.ranks_per_node, 32);
        assert_eq!(m.mem_per_node, 96 * (1usize << 30));
        assert!(m.mcdram_cache);
    }

    #[test]
    fn mem_per_rank_divides_node_memory() {
        let m = Machine::stampede2_knl();
        assert_eq!(m.mem_per_rank(), 96 * (1usize << 30) / 32);
    }

    #[test]
    fn cost_model_reflects_mcdram_mode() {
        let cached = Machine::stampede2_knl().cost_model().unwrap();
        let flat = Machine::stampede2_knl().with_mcdram_cache(false).cost_model().unwrap();
        assert!(cached.stream_bw > flat.stream_bw);
        assert_eq!(cached.alpha, flat.alpha);
        assert_eq!(cached.beta, flat.beta);
    }

    #[test]
    fn cost_model_rejects_degenerate_machines() {
        let mut m = Machine::laptop();
        m.ranks_per_node = 0;
        assert!(m.cost_model().is_err());
        let mut m = Machine::laptop();
        m.net_bandwidth = 0.0;
        assert!(m.cost_model().is_err());
    }

    #[test]
    fn beta_scales_with_ranks_sharing_the_nic() {
        let m = Machine::stampede2_knl();
        let c = m.cost_model().unwrap();
        // 32 ranks share 12.5 GB/s.
        let expected = 32.0 / 12.5e9;
        assert!((c.beta - expected).abs() / expected < 1e-12);
    }
}
