//! BSP α–β–γ cost accounting.
//!
//! The paper analyses SimilarityAtScale in a Bulk Synchronous Parallel
//! (BSP) model where a superstep (global synchronization) costs `α`, each
//! byte moved costs `β` and each arithmetic operation costs `γ`
//! (Section III-C, with `α ≥ β ≥ γ`). The simulator charges every
//! point-to-point message, collective round and locally-counted arithmetic
//! operation to a per-rank [`CostTracker`]; a [`CostModel`] then converts
//! the counters into a projected execution time.
//!
//! Two times are reported for every run:
//!
//! * **measured** — the wall-clock time the host actually spent inside the
//!   rank closure (this captures local kernel speed on the machine the
//!   reproduction runs on), and
//! * **modeled** — `supersteps·α + max_rank(bytes)·β + max_rank(flops)·γ +
//!   max_rank(mem_traffic)/stream_bw`, the BSP projection for the target
//!   machine described by the [`CostModel`].

use serde::{Deserialize, Serialize};

/// Parameters of the α–β–γ BSP machine model plus local-memory parameters.
///
/// All times are in seconds, bandwidths in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Latency / synchronization cost of one superstep (seconds).
    pub alpha: f64,
    /// Inverse network bandwidth (seconds per byte).
    pub beta: f64,
    /// Cost of one arithmetic operation (seconds per flop).
    pub gamma: f64,
    /// Usable memory per rank, in bytes (the `M` of the paper).
    pub mem_per_rank: usize,
    /// Effective local memory streaming bandwidth (bytes/second). On a KNL
    /// node this differs between MCDRAM-as-cache and DDR-only (flat) modes.
    pub stream_bw: f64,
}

impl CostModel {
    /// A model with all costs zero — useful in tests that only care about
    /// counters, not projections.
    pub fn zero() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            gamma: 0.0,
            mem_per_rank: usize::MAX,
            stream_bw: f64::INFINITY,
        }
    }

    /// Validate that α, β, γ are finite and non-negative, and that the
    /// memory per rank and the streaming bandwidth are positive (an
    /// infinite bandwidth, as in [`Self::zero`], is allowed).
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        for (name, v) in [("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)] {
            if !v.is_finite() || v < 0.0 {
                return Err(crate::error::SimError::InvalidConfig(format!(
                    "{name} must be finite and non-negative (got {v})"
                )));
            }
        }
        if self.mem_per_rank == 0 || self.stream_bw.is_nan() || self.stream_bw <= 0.0 {
            return Err(crate::error::SimError::InvalidConfig(
                "mem_per_rank and stream_bw must be positive".to_string(),
            ));
        }
        Ok(())
    }

    /// Project the total BSP time of a run from per-rank counters.
    ///
    /// The projection is `supersteps·α + bytes·β + flops·γ +
    /// mem_traffic / stream_bw`, evaluated on the maximum per-rank values
    /// (the BSP bound is governed by the most loaded rank in each
    /// superstep; using the global per-run maximum is a standard and
    /// slightly conservative approximation).
    pub fn project(&self, reports: &[CostReport]) -> f64 {
        let supersteps = reports.iter().map(|r| r.supersteps).max().unwrap_or(0);
        let bytes = reports.iter().map(|r| r.bytes_sent.max(r.bytes_received)).max().unwrap_or(0);
        let flops = reports.iter().map(|r| r.flops).max().unwrap_or(0);
        let mem = reports.iter().map(|r| r.mem_traffic).max().unwrap_or(0);
        supersteps as f64 * self.alpha
            + bytes as f64 * self.beta
            + flops as f64 * self.gamma
            + mem as f64 / self.stream_bw
    }
}

impl Default for CostModel {
    /// A generic commodity-cluster model: 1 µs latency, 10 GB/s network,
    /// 1 Gflop/s effective scalar rate, 4 GiB per rank, 80 GB/s stream.
    fn default() -> Self {
        CostModel {
            alpha: 1.0e-6,
            beta: 1.0 / 10.0e9,
            gamma: 1.0e-9,
            mem_per_rank: 4 << 30,
            stream_bw: 80.0e9,
        }
    }
}

/// Per-rank communication/computation counters accumulated during a run.
///
/// A tracker is owned by a single rank (no sharing, no atomics); the
/// runtime collects the final values into [`CostReport`]s.
#[derive(Debug, Default, Clone)]
pub struct CostTracker {
    msgs_sent: u64,
    msgs_received: u64,
    bytes_sent: u64,
    bytes_received: u64,
    flops: u64,
    mem_traffic: u64,
    supersteps: u64,
    collectives: u64,
}

impl CostTracker {
    /// Create a tracker with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a point-to-point send of `bytes` bytes.
    pub fn record_send(&mut self, bytes: usize) {
        self.msgs_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Record a point-to-point receive of `bytes` bytes.
    pub fn record_recv(&mut self, bytes: usize) {
        self.msgs_received += 1;
        self.bytes_received += bytes as u64;
    }

    /// Record `n` arithmetic operations performed locally.
    pub fn add_flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// Record `bytes` of local memory traffic (streaming loads/stores of a
    /// kernel); used by the MCDRAM study.
    pub fn add_mem_traffic(&mut self, bytes: u64) {
        self.mem_traffic += bytes;
    }

    /// Record the completion of a superstep (a global synchronization).
    pub fn record_superstep(&mut self) {
        self.supersteps += 1;
    }

    /// Record participation in one collective operation.
    pub fn record_collective(&mut self) {
        self.collectives += 1;
    }

    /// Snapshot the counters into an immutable report for `rank`.
    pub fn report(&self, rank: usize, measured_seconds: f64) -> CostReport {
        CostReport {
            rank,
            msgs_sent: self.msgs_sent,
            msgs_received: self.msgs_received,
            bytes_sent: self.bytes_sent,
            bytes_received: self.bytes_received,
            flops: self.flops,
            mem_traffic: self.mem_traffic,
            supersteps: self.supersteps,
            collectives: self.collectives,
            measured_seconds,
        }
    }

    /// Number of supersteps recorded so far.
    pub fn supersteps(&self) -> u64 {
        self.supersteps
    }

    /// Total bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Total arithmetic operations recorded so far.
    pub fn flops(&self) -> u64 {
        self.flops
    }
}

/// Immutable per-rank summary of a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Rank the report belongs to.
    pub rank: usize,
    /// Number of point-to-point messages sent.
    pub msgs_sent: u64,
    /// Number of point-to-point messages received.
    pub msgs_received: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Arithmetic operations charged with [`CostTracker::add_flops`].
    pub flops: u64,
    /// Local memory traffic charged with [`CostTracker::add_mem_traffic`].
    pub mem_traffic: u64,
    /// Supersteps (global synchronizations) this rank participated in.
    pub supersteps: u64,
    /// Collective operations this rank participated in.
    pub collectives: u64,
    /// Wall-clock seconds the rank spent inside its closure.
    pub measured_seconds: f64,
}

/// Aggregate statistics over all ranks of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateCost {
    /// Number of ranks aggregated.
    pub nranks: usize,
    /// Total bytes sent across all ranks.
    pub total_bytes_sent: u64,
    /// Maximum bytes sent by any single rank.
    pub max_bytes_sent: u64,
    /// Total messages sent across all ranks.
    pub total_msgs: u64,
    /// Maximum supersteps seen on any rank.
    pub max_supersteps: u64,
    /// Total arithmetic operations.
    pub total_flops: u64,
    /// Maximum flops on any single rank (load balance indicator).
    pub max_flops: u64,
    /// Maximum measured wall-clock time of any rank.
    pub max_measured_seconds: f64,
}

impl AggregateCost {
    /// Summarize a slice of per-rank reports.
    pub fn from_reports(reports: &[CostReport]) -> Self {
        AggregateCost {
            nranks: reports.len(),
            total_bytes_sent: reports.iter().map(|r| r.bytes_sent).sum(),
            max_bytes_sent: reports.iter().map(|r| r.bytes_sent).max().unwrap_or(0),
            total_msgs: reports.iter().map(|r| r.msgs_sent).sum(),
            max_supersteps: reports.iter().map(|r| r.supersteps).max().unwrap_or(0),
            total_flops: reports.iter().map(|r| r.flops).sum(),
            max_flops: reports.iter().map(|r| r.flops).max().unwrap_or(0),
            max_measured_seconds: reports.iter().map(|r| r.measured_seconds).fold(0.0, f64::max),
        }
    }

    /// Flop load imbalance: `max_flops / (total_flops / nranks)`.
    /// Returns 1.0 for an empty or perfectly balanced run.
    pub fn flop_imbalance(&self) -> f64 {
        if self.total_flops == 0 || self.nranks == 0 {
            return 1.0;
        }
        let avg = self.total_flops as f64 / self.nranks as f64;
        self.max_flops as f64 / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accumulates_counters() {
        let mut t = CostTracker::new();
        t.record_send(100);
        t.record_send(50);
        t.record_recv(25);
        t.add_flops(1000);
        t.add_mem_traffic(4096);
        t.record_superstep();
        t.record_superstep();
        t.record_collective();
        let r = t.report(3, 1.5);
        assert_eq!(r.rank, 3);
        assert_eq!(r.msgs_sent, 2);
        assert_eq!(r.bytes_sent, 150);
        assert_eq!(r.msgs_received, 1);
        assert_eq!(r.bytes_received, 25);
        assert_eq!(r.flops, 1000);
        assert_eq!(r.mem_traffic, 4096);
        assert_eq!(r.supersteps, 2);
        assert_eq!(r.collectives, 1);
        assert!((r.measured_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn projection_uses_max_per_rank() {
        let m =
            CostModel { alpha: 1.0, beta: 1.0, gamma: 1.0, mem_per_rank: 1 << 20, stream_bw: 1.0 };
        let mut a = CostTracker::new();
        a.record_send(5);
        a.add_flops(2);
        a.record_superstep();
        let mut b = CostTracker::new();
        b.record_send(10);
        b.add_flops(1);
        b.record_superstep();
        b.record_superstep();
        let reports = vec![a.report(0, 0.0), b.report(1, 0.0)];
        // supersteps = 2, bytes = 10, flops = 2, mem = 0
        let t = m.project(&reports);
        assert!((t - (2.0 + 10.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn aggregate_and_imbalance() {
        let mut a = CostTracker::new();
        a.add_flops(30);
        let mut b = CostTracker::new();
        b.add_flops(10);
        let reports = vec![a.report(0, 0.2), b.report(1, 0.4)];
        let agg = AggregateCost::from_reports(&reports);
        assert_eq!(agg.nranks, 2);
        assert_eq!(agg.total_flops, 40);
        assert_eq!(agg.max_flops, 30);
        assert!((agg.flop_imbalance() - 1.5).abs() < 1e-12);
        assert!((agg.max_measured_seconds - 0.4).abs() < 1e-12);
    }

    #[test]
    fn imbalance_of_empty_run_is_one() {
        let agg = AggregateCost::from_reports(&[]);
        assert_eq!(agg.flop_imbalance(), 1.0);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(CostModel::default().validate().is_ok());
        // Infinite streaming bandwidth and unbounded memory are valid.
        assert!(CostModel::zero().validate().is_ok());
        let d = CostModel::default();
        let bad = [
            CostModel { alpha: -1.0, ..d },
            CostModel { stream_bw: 0.0, ..d },
            CostModel { stream_bw: f64::NAN, ..d },
            CostModel { alpha: f64::INFINITY, ..d },
            CostModel { beta: f64::INFINITY, ..d },
            CostModel { gamma: f64::INFINITY, ..d },
            CostModel { beta: f64::NAN, ..d },
            CostModel { mem_per_rank: 0, ..d },
        ];
        for m in bad {
            assert!(m.validate().is_err(), "{m:?}");
        }
    }

    #[test]
    fn zero_model_projects_zero() {
        let m = CostModel::zero();
        let mut t = CostTracker::new();
        t.record_send(1 << 20);
        t.add_flops(1 << 20);
        t.record_superstep();
        assert_eq!(m.project(&[t.report(0, 0.0)]), 0.0);
    }
}
