//! LSH banding parameters derived from a target Jaccard threshold.
//!
//! A k-mins MinHash signature of length `s = b · r` is sliced into `b`
//! bands of `r` rows. Two signatures land in the same bucket of band `i`
//! iff they agree on all `r` rows of that band, which for Jaccard
//! similarity `j` happens with probability `j^r`; across all bands the
//! candidate-collision probability is the classic S-curve
//! `P(j) = 1 − (1 − j^r)^b`, whose inflection sits near
//! `t ≈ (1/b)^(1/r)`. [`LshParams::for_threshold`] picks the `(b, r)`
//! split of a given signature length whose inflection is closest to the
//! requested threshold.

use serde::{Deserialize, Serialize};

use crate::error::{IndexError, IndexResult};

/// Banding parameters: `bands` bands of `rows` rows each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LshParams {
    bands: usize,
    rows: usize,
}

impl LshParams {
    /// Explicit banding parameters (both must be positive).
    pub fn new(bands: usize, rows: usize) -> IndexResult<Self> {
        if bands == 0 || rows == 0 {
            return Err(IndexError::InvalidConfig(format!(
                "bands and rows must be positive (got {bands} × {rows})"
            )));
        }
        Ok(LshParams { bands, rows })
    }

    /// Every `(bands, rows)` split with `b · r = signature_len`, ordered
    /// by increasing `rows` (so from the flattest S-curve to the
    /// sharpest). This is the candidate set [`Self::for_threshold`]
    /// searches.
    pub fn divisor_splits(signature_len: usize) -> IndexResult<Vec<Self>> {
        if signature_len == 0 {
            return Err(IndexError::InvalidConfig("signature length must be positive".into()));
        }
        Ok((1..=signature_len)
            .filter(|rows| signature_len.is_multiple_of(*rows))
            .map(|rows| LshParams { bands: signature_len / rows, rows })
            .collect())
    }

    /// Choose `(bands, rows)` for a signature of length `signature_len`
    /// so the banding S-curve's inflection `(1/b)^(1/r)` is as close as
    /// possible to `threshold`. Every candidate split uses the whole
    /// signature (`b · r = signature_len`, over the divisors of the
    /// length), so estimator precision is never silently discarded.
    pub fn for_threshold(signature_len: usize, threshold: f64) -> IndexResult<Self> {
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(IndexError::InvalidConfig(format!(
                "threshold must lie strictly between 0 and 1 (got {threshold})"
            )));
        }
        let splits = Self::divisor_splits(signature_len)?;
        // On ties the flattest split (fewest rows per band) wins, matching
        // the enumeration order.
        let mut best = splits[0];
        let mut best_err = (best.threshold() - threshold).abs();
        for candidate in &splits[1..] {
            let err = (candidate.threshold() - threshold).abs();
            if err < best_err {
                best = *candidate;
                best_err = err;
            }
        }
        Ok(best)
    }

    /// Number of bands `b`.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band `r`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Required signature length `b · r`.
    pub fn signature_len(&self) -> usize {
        self.bands * self.rows
    }

    /// The S-curve inflection `(1/b)^(1/r)`: pairs with Jaccard
    /// similarity near this value collide in some band with probability
    /// close to 1/2.
    pub fn threshold(&self) -> f64 {
        (1.0 / self.bands as f64).powf(1.0 / self.rows as f64)
    }

    /// Probability that two sets of Jaccard similarity `j` share at least
    /// one band bucket: `1 − (1 − j^r)^b`.
    pub fn collision_probability(&self, j: f64) -> f64 {
        let j = j.clamp(0.0, 1.0);
        1.0 - (1.0 - j.powi(self.rows as i32)).powi(self.bands as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(LshParams::new(0, 4).is_err());
        assert!(LshParams::new(4, 0).is_err());
        assert!(LshParams::for_threshold(0, 0.5).is_err());
        assert!(LshParams::for_threshold(128, 0.0).is_err());
        assert!(LshParams::for_threshold(128, 1.0).is_err());
        assert!(LshParams::for_threshold(128, -3.0).is_err());
    }

    #[test]
    fn divisor_splits_cover_exactly_the_divisors() {
        let splits = LshParams::divisor_splits(12).unwrap();
        let pairs: Vec<(usize, usize)> = splits.iter().map(|p| (p.bands(), p.rows())).collect();
        assert_eq!(pairs, vec![(12, 1), (6, 2), (4, 3), (3, 4), (2, 6), (1, 12)]);
        for p in &splits {
            assert_eq!(p.signature_len(), 12);
        }
        assert!(LshParams::divisor_splits(0).is_err());
    }

    #[test]
    fn for_threshold_uses_the_whole_signature() {
        for t in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for len in [64usize, 128, 192, 256] {
                let p = LshParams::for_threshold(len, t).unwrap();
                assert_eq!(p.signature_len(), len, "t={t}, len={len}");
            }
        }
    }

    #[test]
    fn for_threshold_tracks_the_target() {
        // Higher thresholds demand more rows per band (sharper curves).
        let low = LshParams::for_threshold(256, 0.2).unwrap();
        let high = LshParams::for_threshold(256, 0.8).unwrap();
        assert!(low.rows() < high.rows(), "low={low:?}, high={high:?}");
        // The chosen inflection is the closest achievable one.
        let chosen = LshParams::for_threshold(128, 0.5).unwrap();
        for rows in 1..=128usize {
            if 128 % rows == 0 {
                let alt = LshParams::new(128 / rows, rows).unwrap();
                assert!(
                    (chosen.threshold() - 0.5).abs() <= (alt.threshold() - 0.5).abs() + 1e-12,
                    "alt {alt:?} beats chosen {chosen:?}"
                );
            }
        }
    }

    #[test]
    fn collision_probability_is_an_s_curve() {
        let p = LshParams::for_threshold(128, 0.5).unwrap();
        assert_eq!(p.collision_probability(0.0), 0.0);
        assert!((p.collision_probability(1.0) - 1.0).abs() < 1e-12);
        // Monotone increasing.
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = p.collision_probability(i as f64 / 20.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        // Steep around the inflection: well above the threshold the
        // collision probability is near 1, well below it near 0.
        assert!(p.collision_probability(p.threshold() + 0.25) > 0.9);
        assert!(p.collision_probability((p.threshold() - 0.25).max(0.0)) < 0.35);
    }
}
