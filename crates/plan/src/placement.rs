//! Cost-model-driven segment placement: replicate hot, shard fresh.
//!
//! The distributed reader can serve a segment two ways. **Sharded**: its
//! rows stay spread over the ranks and every batch fetches the candidate
//! rows it needs through the keyed exchange — cost proportional to the
//! segment's *traffic*. **Replicated**: every rank installs a full copy
//! once and serves its candidates locally — cost proportional to the
//! segment's *size*, paid once per placement epoch and amortized over the
//! batches the copy stays valid for. The planner prices both per segment
//! with the α–β–γ machine parameters and the observed probe heat
//! ([`SegmentObservation`]), then emits a [`PlacementPlan`] choosing the
//! cheaper side under a per-rank memory budget. Large, old, compacted
//! segments attract sustained candidate traffic and win replication;
//! fresh segments churn before an install pays off and stay sharded —
//! the paper's replication-versus-communication trade, applied to
//! serving.
//!
//! Heat is typed data, not metric names: every segment counts the probes
//! and candidate rows served from it, and
//! [`IndexReader::segment_stats`](gas_index::IndexReader::segment_stats)
//! reports them beside its size. The caller decides when to plan and
//! over how many batches the heat was gathered.

use gas_index::dist::SegmentPlacement;
use gas_index::SegmentStats;
use serde::{Deserialize, Serialize};

use crate::error::{PlanError, PlanResult};
use crate::machine::MachineParams;

/// Observed serving signal for one segment — size and probe heat, both
/// from one
/// [`IndexReader::segment_stats`](gas_index::IndexReader::segment_stats)
/// entry — plus the batches that heat covers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentObservation {
    /// Segment id (stable across commits and placements).
    pub segment_id: u64,
    /// Stored rows — what a replica install ships.
    pub rows: usize,
    /// Rows still live under the tombstone set.
    pub live_rows: usize,
    /// Probe calls that hit this segment (one per query per batch).
    pub probes: u64,
    /// Candidate rows those probes produced — the segment's fetch traffic.
    pub candidate_rows: u64,
    /// Query batches the heat covers.
    pub batches_observed: u64,
    /// Expected batches until churn (compaction or deletion) invalidates
    /// a replica of this segment; `None` uses the planner's default
    /// horizon. Fresh segments get small values, settled ones large.
    pub expected_batches_resident: Option<f64>,
}

impl SegmentObservation {
    /// The observation of one segment's stats, whose heat covers
    /// `batches_observed` batches. A never-probed segment reads cold,
    /// and the planner always shards it.
    pub fn from_stats(stats: &SegmentStats, batches_observed: u64) -> Self {
        SegmentObservation {
            segment_id: stats.segment_id,
            rows: stats.rows,
            live_rows: stats.live_rows,
            probes: stats.probes,
            candidate_rows: stats.candidates,
            batches_observed,
            expected_batches_resident: None,
        }
    }

    /// Set the churn horizon for this segment.
    pub fn with_residency(mut self, batches: f64) -> Self {
        self.expected_batches_resident = Some(batches);
        self
    }
}

/// Planner knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Ranks the placement serves on.
    pub ranks: usize,
    /// Words per shipped row (signature words plus the key word — what
    /// both the keyed fetch and a replica install move per row).
    pub row_words: usize,
    /// Default batches a replica stays valid before churn, for segments
    /// without an explicit residency.
    pub horizon_batches: f64,
    /// Fraction of per-rank memory the replicas may occupy.
    pub mem_budget_fraction: f64,
}

impl PlannerConfig {
    /// Config for `ranks` ranks serving signatures of `signature_len`
    /// words (the shipped row adds one key word).
    pub fn new(ranks: usize, signature_len: usize) -> Self {
        PlannerConfig {
            ranks,
            row_words: signature_len + 1,
            horizon_batches: 64.0,
            mem_budget_fraction: 0.5,
        }
    }

    fn validate(&self) -> PlanResult<()> {
        if self.ranks == 0 || self.row_words == 0 {
            return Err(PlanError::InvalidConfig(
                "placement needs at least one rank and a positive row width".to_string(),
            ));
        }
        if self.horizon_batches.is_nan() || self.horizon_batches <= 0.0 {
            return Err(PlanError::InvalidConfig("the churn horizon must be positive".to_string()));
        }
        if !(self.mem_budget_fraction > 0.0 && self.mem_budget_fraction <= 1.0) {
            return Err(PlanError::InvalidConfig(
                "mem_budget_fraction must lie in (0, 1]".to_string(),
            ));
        }
        Ok(())
    }
}

/// One segment's priced assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentAssignment {
    /// Segment id.
    pub segment_id: u64,
    /// Chosen placement.
    pub placement: SegmentPlacement,
    /// Modeled per-batch per-rank seconds if served sharded (fetch
    /// traffic through the keyed exchange).
    pub shard_cost_seconds: f64,
    /// Modeled per-batch per-rank seconds if served replicated (install
    /// bytes amortized over the residency horizon).
    pub replicate_cost_seconds: f64,
}

/// The plan: one assignment per observed segment, in input order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Per-segment assignments, in the order the observations were given
    /// (the reader's segment order when fed from `segment_stats`).
    pub assignments: Vec<SegmentAssignment>,
}

impl PlacementPlan {
    /// The placement vector in input order — what
    /// [`install_placement`](gas_index::dist::install_placement) turns
    /// into the [`ServingLayout`](gas_index::dist::ServingLayout) that
    /// [`dist_query_reader_batch_planned`](gas_index::dist::dist_query_reader_batch_planned)
    /// serves.
    pub fn placements(&self) -> Vec<SegmentPlacement> {
        self.assignments.iter().map(|a| a.placement).collect()
    }

    /// The placement of a segment by id.
    pub fn placement_for(&self, segment_id: u64) -> Option<SegmentPlacement> {
        self.assignments.iter().find(|a| a.segment_id == segment_id).map(|a| a.placement)
    }

    /// Number of replicated segments.
    pub fn replicated(&self) -> usize {
        self.assignments.iter().filter(|a| a.placement == SegmentPlacement::Replicated).count()
    }

    /// Number of sharded segments.
    pub fn sharded(&self) -> usize {
        self.assignments.len() - self.replicated()
    }

    /// Modeled per-batch per-rank seconds of the chosen mixed placement.
    pub fn predicted_batch_seconds(&self) -> f64 {
        self.assignments
            .iter()
            .map(|a| match a.placement {
                SegmentPlacement::Replicated => a.replicate_cost_seconds,
                SegmentPlacement::Sharded => a.shard_cost_seconds,
            })
            .sum()
    }
}

/// Prices segment placements against machine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlanner {
    params: MachineParams,
    config: PlannerConfig,
}

impl PlacementPlanner {
    /// A planner for the given machine and knobs.
    pub fn new(params: MachineParams, config: PlannerConfig) -> PlanResult<Self> {
        params.validate()?;
        config.validate()?;
        Ok(PlacementPlanner { params, config })
    }

    /// Per-batch per-rank seconds to serve a segment sharded: the foreign
    /// fraction of its observed candidate rows crosses the wire every
    /// batch.
    fn shard_cost(&self, obs: &SegmentObservation) -> f64 {
        let p = self.config.ranks as f64;
        let rows_per_batch = obs.candidate_rows as f64 / obs.batches_observed.max(1) as f64;
        self.params.beta * rows_per_batch * self.row_bytes() * (p - 1.0) / p
    }

    /// Per-batch per-rank seconds to serve a segment replicated: every
    /// rank installs the foreign fraction of all stored rows once,
    /// amortized over the batches the replica stays valid.
    fn replicate_cost(&self, obs: &SegmentObservation) -> f64 {
        let p = self.config.ranks as f64;
        let horizon = obs.expected_batches_resident.unwrap_or(self.config.horizon_batches).max(1.0);
        self.params.beta * obs.rows as f64 * self.row_bytes() * (p - 1.0) / p / horizon
    }

    fn row_bytes(&self) -> f64 {
        (self.config.row_words * 8) as f64
    }

    /// Emit the plan. Replication must win on price *and* carry observed
    /// heat (a never-probed segment stays sharded no matter its size),
    /// and the winners are admitted hottest-benefit-first until the
    /// per-rank memory budget is spent.
    pub fn plan(&self, observations: &[SegmentObservation]) -> PlanResult<PlacementPlan> {
        let mut assignments: Vec<SegmentAssignment> = observations
            .iter()
            .map(|obs| {
                let shard = self.shard_cost(obs);
                let replicate = self.replicate_cost(obs);
                let wants_replica = obs.probes > 0 && replicate < shard;
                SegmentAssignment {
                    segment_id: obs.segment_id,
                    placement: if wants_replica {
                        SegmentPlacement::Replicated
                    } else {
                        SegmentPlacement::Sharded
                    },
                    shard_cost_seconds: shard,
                    replicate_cost_seconds: replicate,
                }
            })
            .collect();

        // Enforce the memory budget: keep the replicas with the largest
        // modeled benefit, demote the rest back to sharded.
        let budget_bytes = self.params.mem_per_rank as f64 * self.config.mem_budget_fraction;
        let mut candidates: Vec<usize> = (0..assignments.len())
            .filter(|&i| assignments[i].placement == SegmentPlacement::Replicated)
            .collect();
        candidates.sort_by(|&a, &b| {
            let benefit = |i: usize| {
                assignments[i].shard_cost_seconds - assignments[i].replicate_cost_seconds
            };
            benefit(b)
                .total_cmp(&benefit(a))
                .then(assignments[a].segment_id.cmp(&assignments[b].segment_id))
        });
        let mut spent = 0.0;
        for i in candidates {
            let bytes = observations[i].rows as f64 * self.row_bytes();
            if spent + bytes <= budget_bytes {
                spent += bytes;
            } else {
                assignments[i].placement = SegmentPlacement::Sharded;
            }
        }

        let plan = PlacementPlan { assignments };
        gas_obs::counter("gas_plan_plans_total").inc();
        gas_obs::gauge("gas_plan_replicated_segments").set(plan.replicated() as i64);
        gas_obs::gauge("gas_plan_sharded_segments").set(plan.sharded() as i64);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MachineParams {
        MachineParams::paper_machine()
    }

    fn obs(id: u64, rows: usize, candidates_per_batch: u64, residency: f64) -> SegmentObservation {
        SegmentObservation {
            segment_id: id,
            rows,
            live_rows: rows,
            probes: if candidates_per_batch > 0 { 10 } else { 0 },
            candidate_rows: candidates_per_batch * 10,
            batches_observed: 10,
            expected_batches_resident: Some(residency),
        }
    }

    fn planner() -> PlacementPlanner {
        PlacementPlanner::new(params(), PlannerConfig::new(4, 64)).unwrap()
    }

    #[test]
    fn hot_settled_segments_replicate_fresh_and_cold_ones_shard() {
        let p = planner();
        let observations = vec![
            // Hot and long-lived: 60 candidate rows per batch, 100 stored
            // rows, resident 64 batches → install amortizes to ~1.6
            // rows/batch, far below the 60 it saves.
            obs(1, 100, 60, 64.0),
            // Fresh: same traffic but churns in 2 batches → install costs
            // 50 rows/batch against 6 saved.
            obs(2, 100, 6, 2.0),
            // Cold: never probed, stays sharded no matter the size.
            SegmentObservation { probes: 0, candidate_rows: 0, ..obs(3, 5000, 0, 64.0) },
        ];
        let plan = p.plan(&observations).unwrap();
        assert_eq!(plan.placement_for(1), Some(SegmentPlacement::Replicated));
        assert_eq!(plan.placement_for(2), Some(SegmentPlacement::Sharded));
        assert_eq!(plan.placement_for(3), Some(SegmentPlacement::Sharded));
        assert_eq!((plan.replicated(), plan.sharded()), (1, 2));
        // Output preserves input order.
        assert_eq!(
            plan.placements(),
            vec![
                SegmentPlacement::Replicated,
                SegmentPlacement::Sharded,
                SegmentPlacement::Sharded
            ]
        );
        // The mixed plan is priced at most as high as either pure plan.
        let pure_shard: f64 = plan.assignments.iter().map(|a| a.shard_cost_seconds).sum();
        let pure_replicate: f64 = plan.assignments.iter().map(|a| a.replicate_cost_seconds).sum();
        assert!(plan.predicted_batch_seconds() <= pure_shard + 1e-15);
        assert!(plan.predicted_batch_seconds() <= pure_replicate + 1e-15);
    }

    #[test]
    fn single_rank_plans_everything_sharded() {
        let p = PlacementPlanner::new(params(), PlannerConfig::new(1, 64)).unwrap();
        let plan = p.plan(&[obs(1, 100, 60, 64.0)]).unwrap();
        // With p = 1 nothing crosses the wire either way; replication
        // cannot strictly win, so the cheaper no-op (sharded) stands.
        assert_eq!(plan.placement_for(1), Some(SegmentPlacement::Sharded));
    }

    #[test]
    fn memory_budget_admits_best_benefit_first() {
        let mut machine = params();
        // Budget fits exactly one 100-row replica of 65-word rows.
        machine.mem_per_rank = 2 * 100 * 65 * 8;
        let config = PlannerConfig { mem_budget_fraction: 0.5, ..PlannerConfig::new(4, 64) };
        let p = PlacementPlanner::new(machine, config).unwrap();
        let plan = p
            .plan(&[
                obs(1, 100, 30, 64.0), // replica-worthy, smaller benefit
                obs(2, 100, 90, 64.0), // replica-worthy, larger benefit
            ])
            .unwrap();
        assert_eq!(plan.placement_for(2), Some(SegmentPlacement::Replicated));
        assert_eq!(plan.placement_for(1), Some(SegmentPlacement::Sharded));
    }

    #[test]
    fn observations_carry_typed_heat_and_cold_segments_shard() {
        let hot =
            SegmentStats { segment_id: 7, rows: 40, live_rows: 33, probes: 12, candidates: 340 };
        let o = SegmentObservation::from_stats(&hot, 6);
        assert_eq!((o.segment_id, o.rows, o.live_rows), (7, 40, 33));
        assert_eq!((o.probes, o.candidate_rows, o.batches_observed), (12, 340, 6));
        assert_eq!(o.expected_batches_resident, None);
        // A never-probed segment reads cold and is sharded, however large.
        let cold = SegmentObservation::from_stats(
            &SegmentStats { segment_id: 9, rows: 5000, live_rows: 5000, probes: 0, candidates: 0 },
            6,
        );
        assert_eq!((cold.probes, cold.candidate_rows), (0, 0));
        let cold = cold.with_residency(1e9);
        assert_eq!(cold.expected_batches_resident, Some(1e9));
        let plan = planner().plan(&[o, cold]).unwrap();
        assert_eq!(plan.placement_for(7), Some(SegmentPlacement::Replicated));
        assert_eq!(plan.placement_for(9), Some(SegmentPlacement::Sharded));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        assert!(PlacementPlanner::new(params(), PlannerConfig::new(0, 64)).is_err());
        let bad = PlannerConfig { horizon_batches: 0.0, ..PlannerConfig::new(4, 64) };
        assert!(PlacementPlanner::new(params(), bad).is_err());
        let bad = PlannerConfig { mem_budget_fraction: 0.0, ..PlannerConfig::new(4, 64) };
        assert!(PlacementPlanner::new(params(), bad).is_err());
        let mut bad_machine = params();
        bad_machine.beta = f64::NAN;
        assert!(PlacementPlanner::new(bad_machine, PlannerConfig::new(4, 64)).is_err());
    }
}
