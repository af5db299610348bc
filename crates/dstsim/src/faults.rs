//! Injected rank faults for the simulated runtime.
//!
//! A [`RankFaults`] spec marks ranks as **crashed** (every communication
//! op touching them returns [`SimError::RankCrashed`] immediately —
//! deterministic, no timers involved) or **slowed** (the rank sleeps a
//! fixed delay before every send, so peers with an injected receive
//! timeout observe [`SimError::Timeout`]). The spec is plain data
//! attached to a [`Runtime`](crate::runtime::Runtime) before the run
//! starts, so the fault schedule is a pure function of the spec — the
//! same spec replays the same failures.
//!
//! Crashes use a *crash-at-start* model: the crashed rank's closure
//! still runs (so `Runtime::run` keeps returning one result per rank),
//! but its first communication attempt — and every peer's attempt to
//! talk to it — fails with a typed error. This is the shape that lets
//! serving code practice failover: survivors learn about the crash
//! through errors or out-of-band knowledge of the spec (standing in for
//! a membership service), regroup with
//! [`Communicator::subgroup`](crate::comm::Communicator::subgroup), and
//! keep answering.
//!
//! Every fault observation bumps a `gas_chaos_*` counter in the
//! `gas_obs` registry. A default (empty) spec costs one boolean test
//! per site.
//!
//! [`SimError::RankCrashed`]: crate::error::SimError::RankCrashed
//! [`SimError::Timeout`]: crate::error::SimError::Timeout

use std::collections::{BTreeMap, BTreeSet};

/// Fault spec for one simulated run: which ranks are crashed, which are
/// slowed (and by how much), and an optional receive timeout every rank
/// applies to blocking receives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankFaults {
    crashed: BTreeSet<usize>,
    slow_micros: BTreeMap<usize, u64>,
    recv_timeout_micros: Option<u64>,
}

impl RankFaults {
    /// A spec with no faults (the default).
    pub fn none() -> Self {
        RankFaults::default()
    }

    /// Mark `rank` (world numbering) as crashed from the start.
    pub fn crash(mut self, rank: usize) -> Self {
        self.crashed.insert(rank);
        self
    }

    /// Slow `rank` by `micros` before every send it performs.
    pub fn slow(mut self, rank: usize, micros: u64) -> Self {
        self.slow_micros.insert(rank, micros);
        self
    }

    /// Apply a timeout (microseconds) to every blocking receive; a
    /// receive that waits longer fails with
    /// [`SimError::Timeout`](crate::error::SimError::Timeout) instead of
    /// blocking forever.
    pub fn with_recv_timeout(mut self, micros: u64) -> Self {
        self.recv_timeout_micros = Some(micros);
        self
    }

    /// Is any fault configured? Checked once per communicator op.
    pub fn active(&self) -> bool {
        !self.crashed.is_empty()
            || !self.slow_micros.is_empty()
            || self.recv_timeout_micros.is_some()
    }

    /// Is `rank` (world numbering) injected as crashed?
    pub fn is_crashed(&self, rank: usize) -> bool {
        self.crashed.contains(&rank)
    }

    /// Injected per-send delay for `rank`, or 0.
    pub fn slow_micros(&self, rank: usize) -> u64 {
        self.slow_micros.get(&rank).copied().unwrap_or(0)
    }

    /// The injected receive timeout, if any.
    pub fn recv_timeout_micros(&self) -> Option<u64> {
        self.recv_timeout_micros
    }

    /// The ranks of a world of size `p` that are *not* crashed,
    /// ascending — the membership list survivors regroup on.
    pub fn alive_ranks(&self, p: usize) -> Vec<usize> {
        (0..p).filter(|r| !self.crashed.contains(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors_round_trip() {
        let f = RankFaults::none().crash(2).slow(1, 500).with_recv_timeout(2000);
        assert!(f.active());
        assert!(f.is_crashed(2));
        assert!(!f.is_crashed(1));
        assert_eq!(f.slow_micros(1), 500);
        assert_eq!(f.slow_micros(0), 0);
        assert_eq!(f.recv_timeout_micros(), Some(2000));
        assert_eq!(f.alive_ranks(4), vec![0, 1, 3]);
        assert!(!RankFaults::none().active());
    }
}
