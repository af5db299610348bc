//! Seeded random inputs for this crate's property tests (`proptest` is
//! not among its dependencies).

/// splitmix64: every seed gives a full-period, well-mixed stream.
pub(crate) struct Rng(pub u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub(crate) fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Per column, the ascending rows `< nrows` kept with probability
    /// `percent / 100` each.
    pub(crate) fn columns(
        &mut self,
        nrows: usize,
        ncols: usize,
        percent: usize,
    ) -> Vec<Vec<usize>> {
        (0..ncols).map(|_| (0..nrows).filter(|_| self.below(100) < percent).collect()).collect()
    }
}
