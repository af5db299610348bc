//! MinHash (bottom-k) sketching — the Mash-style baseline.
//!
//! The paper motivates exact distributed Jaccard by noting that MinHash
//! approximations (Mash) "often lead to inaccurate approximations of d_J
//! for highly similar pairs of sequence sets, and tend to be ineffective
//! for computation of a distance between highly dissimilar sets unless
//! very large sketch sizes are used" (Section I). This module implements
//! the bottom-k MinHash sketch and the Mash distance estimator so the
//! reproduction can quantify that accuracy/size trade-off: Table II's
//! MinHash row is `tests/paper_evaluation.rs`'s
//! `table2_minhash_error_stays_within_the_bottom_k_band`.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::indicator::SampleCollection;
use gas_sparse::dense::DenseMatrix;

/// 64-bit finalizer used as the sketch hash (splitmix64).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bottom-k MinHash sketch: the `k` smallest hash values of a set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHashSketch {
    hashes: Vec<u64>,
    sketch_size: usize,
    set_size: usize,
}

impl MinHashSketch {
    /// The sorted bottom-k hash values.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Configured sketch size `s`.
    pub fn sketch_size(&self) -> usize {
        self.sketch_size
    }

    /// Size of the original set.
    pub fn set_size(&self) -> usize {
        self.set_size
    }

    /// Estimate `J(A, B)` with the bottom-k estimator: take the `s`
    /// smallest values of the union of the two sketches and count how many
    /// appear in both (the Mash estimator).
    pub fn jaccard_estimate(&self, other: &MinHashSketch) -> f64 {
        if self.hashes.is_empty() && other.hashes.is_empty() {
            return 1.0;
        }
        let s = self.sketch_size.min(other.sketch_size);
        // Merge the two sorted lists keeping the s smallest distinct values.
        let mut shared = 0usize;
        let mut taken = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while taken < s && (i < self.hashes.len() || j < other.hashes.len()) {
            let a = self.hashes.get(i).copied();
            let b = other.hashes.get(j).copied();
            match (a, b) {
                (Some(x), Some(y)) if x == y => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
                (Some(x), Some(y)) if x < y => i += 1,
                (Some(_), Some(_)) => j += 1,
                (Some(_), None) => i += 1,
                (None, Some(_)) => j += 1,
                (None, None) => break,
            }
            taken += 1;
        }
        if taken == 0 {
            return 0.0;
        }
        shared as f64 / taken as f64
    }

    /// The Mash distance `-ln(2j / (1 + j)) / k` for k-mer length `k`,
    /// clamped to `[0, 1]`; `j = 0` maps to distance 1.
    pub fn mash_distance(&self, other: &MinHashSketch, k: usize) -> f64 {
        let j = self.jaccard_estimate(other);
        if j <= 0.0 {
            return 1.0;
        }
        (-(2.0 * j / (1.0 + j)).ln() / k as f64).clamp(0.0, 1.0)
    }
}

/// Builds MinHash sketches with a fixed sketch size and hash seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHasher {
    sketch_size: usize,
    seed: u64,
}

impl MinHasher {
    /// Create a sketcher with the given sketch size (Mash defaults to
    /// 1,000; the paper argues much larger sizes are needed for accuracy).
    pub fn new(sketch_size: usize) -> CoreResult<Self> {
        if sketch_size == 0 {
            return Err(CoreError::InvalidConfig("sketch size must be positive".to_string()));
        }
        Ok(MinHasher { sketch_size, seed: 0x6D61_7368 })
    }

    /// Use a specific hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sketch size `s`.
    pub fn sketch_size(&self) -> usize {
        self.sketch_size
    }

    /// Sketch a set of values (k-mer codes).
    pub fn sketch(&self, values: &[u64]) -> MinHashSketch {
        // Mix the seed through the finalizer first so that nearby seeds
        // produce unrelated hash functions.
        let seed = splitmix64(self.seed);
        let mut hashes: Vec<u64> = values.iter().map(|&v| splitmix64(v ^ seed)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.truncate(self.sketch_size);
        MinHashSketch { hashes, sketch_size: self.sketch_size, set_size: values.len() }
    }

    /// Sketch every sample of a collection.
    pub fn sketch_collection(&self, collection: &SampleCollection) -> Vec<MinHashSketch> {
        (0..collection.n()).map(|i| self.sketch(collection.sample(i))).collect()
    }

    /// All-pairs estimated Jaccard similarity matrix from sketches — the
    /// Mash-style approximate counterpart of SimilarityAtScale's exact
    /// matrix.
    pub fn approximate_similarity(&self, collection: &SampleCollection) -> DenseMatrix<f64> {
        let sketches = self.sketch_collection(collection);
        let n = sketches.len();
        let mut s = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            s.set(i, i, 1.0);
            for j in (i + 1)..n {
                let est = sketches[i].jaccard_estimate(&sketches[j]);
                s.set(i, j, est);
                s.set(j, i, est);
            }
        }
        s
    }
}

/// A fixed-length k-mins MinHash signature: position `i` holds the
/// minimum of the `i`-th hash function over the set.
///
/// Unlike the bottom-k [`MinHashSketch`] (whose entries shift when a
/// single element changes), every position of a k-mins signature is an
/// independent min-wise hash, so `P[sig_a[i] == sig_b[i]] = J(A, B)`
/// exactly. That per-position collision statistic is what LSH banding
/// needs: `gas-index` slices signatures into bands of `r` rows and a
/// band collides with probability `J^r`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHashSignature {
    mins: Vec<u64>,
}

/// Sentinel stored at every position of the signature of an empty set
/// (no value ever hashes to it in practice, and two empty sets compare
/// equal everywhere, matching the `J(∅, ∅) = 1` convention).
pub const EMPTY_SET_SENTINEL: u64 = u64::MAX;

/// Number of positions on which two raw signature rows agree. The
/// slice-level form of [`MinHashSignature::agreement`], shared with the
/// `gas-index` scorers, which compare query signatures against rows of a
/// segment's signature matrix (local or fetched) without rebuilding
/// [`MinHashSignature`] values.
///
/// Panics if the rows have different lengths (they must come from the
/// same [`SignatureScheme`] to be comparable).
pub fn signature_agreement(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "signatures from different schemes are not comparable");
    a.iter().zip(b).filter(|(x, y)| x == y).count()
}

impl MinHashSignature {
    /// Reassemble a signature from its raw position values (used where
    /// signatures travel as raw words, e.g. the `gas-index` distributed
    /// query broadcast).
    pub fn from_values(mins: Vec<u64>) -> Self {
        MinHashSignature { mins }
    }

    /// The per-position minima.
    pub fn values(&self) -> &[u64] {
        &self.mins
    }

    /// Signature length (number of hash functions).
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// Whether the signature has zero positions.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Number of positions on which the two signatures agree.
    ///
    /// Panics if the signatures have different lengths (they must come
    /// from the same [`SignatureScheme`] to be comparable).
    pub fn agreement(&self, other: &MinHashSignature) -> usize {
        signature_agreement(&self.mins, &other.mins)
    }

    /// The k-mins Jaccard estimator: the fraction of agreeing positions.
    pub fn jaccard_estimate(&self, other: &MinHashSignature) -> f64 {
        if self.mins.is_empty() {
            return 0.0;
        }
        self.agreement(other) as f64 / self.mins.len() as f64
    }
}

/// Which min-wise hashing algorithm a [`SignatureScheme`] runs.
///
/// Both signers produce fixed-length signatures with the per-position
/// collision statistic `P[sig_a[i] == sig_b[i]] ≈ J(A, B)` that LSH
/// banding relies on; they differ only in signing cost:
///
/// * [`SignerKind::KMins`] evaluates `len` independent hash functions
///   over the whole set — `O(len · |set|)` hashes, the classical scheme;
/// * [`SignerKind::Oph`] (one-permutation hashing) hashes every element
///   once, buckets it into one of `len` bins, keeps the per-bin minimum
///   and fills empty bins by rotation densification — `O(|set| + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SignerKind {
    /// `len` independent hash functions, one minimum each.
    KMins,
    /// One-permutation hashing with rotation densification.
    Oph,
}

impl SignerKind {
    /// Stable wire code of the signer (the `gas-index` container records
    /// it so persisted indexes stay self-describing).
    pub fn code(&self) -> u32 {
        match self {
            SignerKind::KMins => 0,
            SignerKind::Oph => 1,
        }
    }

    /// Decode a wire code; `None` for codes this build does not know.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(SignerKind::KMins),
            1 => Some(SignerKind::Oph),
            _ => None,
        }
    }
}

impl std::fmt::Display for SignerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignerKind::KMins => write!(f, "kmins"),
            SignerKind::Oph => write!(f, "oph"),
        }
    }
}

/// Builds fixed-length min-wise signatures under one of two signers
/// ([`SignerKind`]): classical k-mins (`sig[i] = min_v h_i(v)`, costing
/// `len · |set|` hashes) or one-permutation hashing (each element hashed
/// once, costing `|set| + len`).
///
/// The paper's exact pipeline stays the ground truth; these signatures
/// exist to feed the LSH index (`gas-index`), which trades that
/// preprocessing for sublinear candidate generation at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureScheme {
    len: usize,
    seed: u64,
    kind: SignerKind,
}

impl SignatureScheme {
    /// Create a k-mins scheme with `len` hash functions.
    pub fn new(len: usize) -> CoreResult<Self> {
        if len == 0 {
            return Err(CoreError::InvalidConfig("signature length must be positive".to_string()));
        }
        Ok(SignatureScheme { len, seed: 0x6C73_685F_6B6D_696E, kind: SignerKind::KMins })
    }

    /// Use a specific hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use a specific signer.
    pub fn with_kind(mut self, kind: SignerKind) -> Self {
        self.kind = kind;
        self
    }

    /// Signature length (number of positions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: a scheme has at least one position.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The signer this scheme runs.
    pub fn kind(&self) -> SignerKind {
        self.kind
    }

    /// Human-readable one-line description (used in mismatch errors).
    pub fn describe(&self) -> String {
        format!("{}(len={}, seed={:#018x})", self.kind, self.len, self.seed)
    }

    /// Sign one set of values (k-mer codes). Empty sets sign to
    /// [`EMPTY_SET_SENTINEL`] at every position under both signers.
    pub fn sign(&self, values: &[u64]) -> MinHashSignature {
        let mut mins = vec![EMPTY_SET_SENTINEL; self.len];
        self.sign_into(values, &mut mins);
        MinHashSignature { mins }
    }

    /// Sign into a pre-initialized row of `len` sentinel slots (the
    /// flattened signature-matrix path of [`Self::sign_collection`]).
    fn sign_into(&self, values: &[u64], slots: &mut [u64]) {
        debug_assert_eq!(slots.len(), self.len);
        match self.kind {
            SignerKind::KMins => self.sign_kmins(values, slots),
            SignerKind::Oph => self.sign_oph(values, slots),
        }
    }

    /// K-mins: position `i` holds `min_v h_i(v)` for `len` independent
    /// splitmix-derived hash functions — `O(len · |set|)` hashes.
    fn sign_kmins(&self, values: &[u64], slots: &mut [u64]) {
        for (i, slot) in slots.iter_mut().enumerate() {
            // Per-position hash function: mix the position into the seed
            // through the finalizer so functions are pairwise unrelated.
            let hi = splitmix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            *slot = values.iter().fold(*slot, |min, &v| min.min(splitmix64(v ^ hi)));
        }
    }

    /// One-permutation hashing: every element is hashed once; the hash's
    /// high bits pick one of `len` equal bins (multiply-shift, so bins
    /// partition the hash space evenly without a modulo bias) and the bin
    /// keeps its minimum hash. Empty bins are then filled by rotation
    /// densification so every position carries a min-wise value and the
    /// per-position collision statistic survives — `O(|set| + len)`.
    fn sign_oph(&self, values: &[u64], slots: &mut [u64]) {
        let seed = splitmix64(self.seed);
        let len = self.len as u128;
        for &v in values {
            let h = splitmix64(v ^ seed);
            let bin = ((h as u128 * len) >> 64) as usize;
            // A branch here mispredicts on about a third of the values.
            slots[bin] = slots[bin].min(h);
        }
        densify_rotation(slots);
    }

    /// Sign every sample of a collection into one row-major
    /// `n × len` signature matrix (row `i` is sample `i`'s signature), in
    /// parallel: the matrix is pre-allocated and filled in place over
    /// contiguous runs of rows (`par_chunks_mut`), so the hashing and the
    /// densification pass of every row run inside the parallel fill and
    /// no per-row allocation or second copy is ever made.
    pub fn sign_collection(&self, collection: &SampleCollection) -> Vec<u64> {
        self.sign_batch_by(collection.n(), |i| collection.sample(i))
    }

    /// Sign a *delta batch* of raw sets under this (already fixed)
    /// scheme into one row-major `sets.len() × len` signature matrix: the
    /// incremental-indexing path, where newly arriving samples must be
    /// signed exactly as the existing corpus was (same signer kind,
    /// length and seed) without rebuilding a [`SampleCollection`] around
    /// them. Cost is proportional to the batch, not the corpus; row `i`
    /// is bit-identical to [`Self::sign`] of `sets[i]` and to the same
    /// row of [`Self::sign_collection`] over the same sets.
    pub fn sign_batch(&self, sets: &[&[u64]]) -> Vec<u64> {
        self.sign_batch_by(sets.len(), |i| sets[i])
    }

    /// Shared parallel fill of an `n × len` matrix from `set_of`.
    fn sign_batch_by<'a, F>(&self, n: usize, set_of: F) -> Vec<u64>
    where
        F: Fn(usize) -> &'a [u64] + Sync,
    {
        use rayon::prelude::*;
        const RUN: usize = 16;
        let mut matrix = vec![EMPTY_SET_SENTINEL; n * self.len];
        matrix.par_chunks_mut(RUN * self.len).enumerate().for_each(|(run, rows)| {
            for (j, row) in rows.chunks_exact_mut(self.len).enumerate() {
                self.sign_into(set_of(run * RUN + j), row);
            }
        });
        matrix
    }
}

/// Rotation densification: every empty bin takes the value of the
/// nearest filled bin to its right, wrapping circularly (Shrivastava &
/// Li's densified one-permutation hashing). A signature that is entirely
/// [`EMPTY_SET_SENTINEL`] (the empty set) is left untouched, preserving
/// the `J(∅, ∅) = 1` convention.
fn densify_rotation(slots: &mut [u64]) {
    let Some(first_filled) = slots.iter().position(|&v| v != EMPTY_SET_SENTINEL) else {
        return;
    };
    // Walk right-to-left carrying the nearest filled value to the right;
    // bins past the last filled one wrap around to the first filled bin.
    let mut carry = slots[first_filled];
    for slot in slots.iter_mut().rev() {
        if *slot == EMPTY_SET_SENTINEL {
            *slot = carry;
        } else {
            carry = *slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::jaccard_exact_pairwise;

    fn overlapping_sets(size: usize, overlap: usize) -> (Vec<u64>, Vec<u64>) {
        let a: Vec<u64> = (0..size as u64).collect();
        let b: Vec<u64> =
            (size as u64 - overlap as u64..2 * size as u64 - overlap as u64).collect();
        (a, b)
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads_bits() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Low-entropy inputs produce well-spread outputs.
        let outputs: Vec<u64> = (0..100).map(splitmix64).collect();
        let high_bits_set = outputs.iter().filter(|&&v| v >> 63 == 1).count();
        assert!(high_bits_set > 20 && high_bits_set < 80);
    }

    #[test]
    fn identical_sets_estimate_one() {
        let hasher = MinHasher::new(64).unwrap();
        let s = hasher.sketch(&(0..1000u64).collect::<Vec<_>>());
        assert_eq!(s.jaccard_estimate(&s), 1.0);
        assert_eq!(s.mash_distance(&s, 21), 0.0);
        assert_eq!(s.sketch_size(), 64);
        assert_eq!(s.set_size(), 1000);
        assert_eq!(s.hashes().len(), 64);
    }

    #[test]
    fn disjoint_sets_estimate_zero() {
        let hasher = MinHasher::new(128).unwrap();
        let a = hasher.sketch(&(0..1000u64).collect::<Vec<_>>());
        let b = hasher.sketch(&(10_000..11_000u64).collect::<Vec<_>>());
        assert_eq!(a.jaccard_estimate(&b), 0.0);
        assert_eq!(a.mash_distance(&b, 21), 1.0);
    }

    #[test]
    fn estimate_improves_with_sketch_size() {
        // True J = 0.5 (overlap of 2/3 of each set of 30k elements).
        let (a, b) = overlapping_sets(30_000, 20_000);
        let true_j = 20_000.0 / 40_000.0;
        let mut errors = Vec::new();
        for s in [16usize, 256, 4096] {
            let hasher = MinHasher::new(s).unwrap();
            let est = hasher.sketch(&a).jaccard_estimate(&hasher.sketch(&b));
            errors.push((est - true_j).abs());
        }
        // Larger sketches give (weakly) better estimates.
        assert!(errors[2] <= errors[0] + 0.02, "errors: {errors:?}");
        assert!(errors[2] < 0.05);
    }

    #[test]
    fn small_sketches_are_unreliable_for_similar_pairs() {
        // Two nearly identical sets (J ≈ 0.999): a small sketch cannot
        // distinguish them from identical — the paper's motivating issue.
        let a: Vec<u64> = (0..50_000u64).collect();
        let b: Vec<u64> = (0..50_000u64).map(|v| if v == 0 { 1_000_000 } else { v }).collect();
        let small = MinHasher::new(16).unwrap();
        let est = small.sketch(&a).jaccard_estimate(&small.sketch(&b));
        // The estimate quantizes to multiples of 1/16 and typically reads
        // exactly 1.0, hiding the difference.
        assert!(est >= 1.0 - 1.0 / 16.0);
    }

    #[test]
    fn empty_sets_behave() {
        let hasher = MinHasher::new(8).unwrap();
        let e = hasher.sketch(&[]);
        let f = hasher.sketch(&[1, 2, 3]);
        assert_eq!(e.jaccard_estimate(&e), 1.0);
        assert_eq!(e.jaccard_estimate(&f), 0.0);
    }

    #[test]
    fn invalid_sketch_size_rejected() {
        assert!(MinHasher::new(0).is_err());
    }

    #[test]
    fn approximate_similarity_is_close_to_exact_for_large_sketches() {
        let collection = SampleCollection::from_sorted_sets(vec![
            (0..2000u64).collect(),
            (1000..3000u64).collect(),
            (5000..6000u64).collect(),
        ])
        .unwrap();
        let exact = jaccard_exact_pairwise(&collection);
        let approx = MinHasher::new(512).unwrap().approximate_similarity(&collection);
        let max_err = exact.similarity().max_abs_diff(&approx).unwrap();
        assert!(max_err < 0.1, "max error {max_err}");
        assert!(approx.is_symmetric(0.0));
    }

    #[test]
    fn signature_estimate_tracks_exact_jaccard() {
        // True J = 0.5; a 512-position signature estimates it within a
        // few percentage points (binomial stddev ≈ 0.022).
        let (a, b) = overlapping_sets(3_000, 2_000);
        let scheme = SignatureScheme::new(512).unwrap();
        let (sa, sb) = (scheme.sign(&a), scheme.sign(&b));
        assert!((sa.jaccard_estimate(&sb) - 0.5).abs() < 0.1);
        assert_eq!(sa.jaccard_estimate(&sa), 1.0);
        assert_eq!(sa.len(), 512);
        assert!(!sa.is_empty());
    }

    #[test]
    fn signature_positions_are_independent_min_hashes() {
        // Disjoint sets agree (essentially) nowhere; identical sets
        // everywhere; empty sets sign to the sentinel.
        let scheme = SignatureScheme::new(64).unwrap();
        let a = scheme.sign(&(0..500u64).collect::<Vec<_>>());
        let b = scheme.sign(&(10_000..10_500u64).collect::<Vec<_>>());
        assert_eq!(a.agreement(&b), 0);
        assert_eq!(a.agreement(&a), 64);
        let e = scheme.sign(&[]);
        assert!(e.values().iter().all(|&v| v == EMPTY_SET_SENTINEL));
        assert_eq!(e.jaccard_estimate(&e), 1.0);
        assert_eq!(e.agreement(&a), 0);
    }

    #[test]
    fn signature_schemes_are_seeded_and_deterministic() {
        let values: Vec<u64> = (0..800).collect();
        let s1 = SignatureScheme::new(32).unwrap().with_seed(7);
        let s2 = SignatureScheme::new(32).unwrap().with_seed(8);
        assert_eq!(s1.sign(&values), s1.sign(&values));
        assert_ne!(s1.sign(&values).values(), s2.sign(&values).values());
        assert_eq!(s1.seed(), 7);
        assert_eq!(s1.len(), 32);
        assert!(SignatureScheme::new(0).is_err());
        let round = MinHashSignature::from_values(s1.sign(&values).values().to_vec());
        assert_eq!(round, s1.sign(&values));
    }

    #[test]
    fn sign_collection_matches_per_sample_signing() {
        let collection = SampleCollection::from_sorted_sets(vec![
            (0..300u64).collect(),
            (150..450u64).collect(),
            vec![],
            vec![9_999],
        ])
        .unwrap();
        let scheme = SignatureScheme::new(48).unwrap();
        let signed = scheme.sign_collection(&collection);
        assert_eq!(signed.len(), 4 * 48);
        for (i, row) in signed.chunks_exact(48).enumerate() {
            assert_eq!(row, scheme.sign(collection.sample(i)).values());
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_signature_lengths_panic() {
        let a = SignatureScheme::new(8).unwrap().sign(&[1, 2]);
        let b = SignatureScheme::new(16).unwrap().sign(&[1, 2]);
        let _ = a.agreement(&b);
    }

    #[test]
    fn oph_estimate_tracks_exact_jaccard() {
        // True J = 0.5; a 512-bin OPH signature (sets much larger than
        // the bin count, so nearly every bin is genuinely filled) matches
        // the k-mins tolerance.
        let (a, b) = overlapping_sets(3_000, 2_000);
        let scheme = SignatureScheme::new(512).unwrap().with_kind(SignerKind::Oph);
        let (sa, sb) = (scheme.sign(&a), scheme.sign(&b));
        assert!((sa.jaccard_estimate(&sb) - 0.5).abs() < 0.1);
        assert_eq!(sa.jaccard_estimate(&sa), 1.0);
        assert_eq!(sa.len(), 512);
        assert_eq!(scheme.kind(), SignerKind::Oph);
    }

    #[test]
    fn oph_signs_in_one_pass_worth_of_hashes() {
        // Identical sets sign identically; disjoint sets agree nowhere
        // (whp) — the same per-position statistics as k-mins.
        let scheme = SignatureScheme::new(64).unwrap().with_kind(SignerKind::Oph);
        let a = scheme.sign(&(0..2_000u64).collect::<Vec<_>>());
        let b = scheme.sign(&(100_000..102_000u64).collect::<Vec<_>>());
        assert_eq!(a.agreement(&a), 64);
        assert_eq!(a.agreement(&b), 0);
        // OPH and k-mins are different hash families over the same seed.
        let kmins = SignatureScheme::new(64).unwrap();
        assert_ne!(
            scheme.sign(&(0..2_000u64).collect::<Vec<_>>()).values(),
            kmins.sign(&(0..2_000u64).collect::<Vec<_>>()).values()
        );
    }

    #[test]
    fn oph_empty_set_signs_to_sentinel_everywhere() {
        let scheme = SignatureScheme::new(32).unwrap().with_kind(SignerKind::Oph);
        let e = scheme.sign(&[]);
        assert!(e.values().iter().all(|&v| v == EMPTY_SET_SENTINEL));
        assert_eq!(e.jaccard_estimate(&e), 1.0);
        let f = scheme.sign(&[7]);
        assert_eq!(e.agreement(&f), 0, "empty vs non-empty must not alias after densification");
    }

    #[test]
    fn oph_singleton_densifies_to_a_constant_signature() {
        // One element fills one bin; rotation densification propagates
        // that single min-wise value to every other bin.
        let scheme = SignatureScheme::new(48).unwrap().with_kind(SignerKind::Oph);
        let s = scheme.sign(&[42]);
        assert!(s.values().iter().all(|&v| v == s.values()[0]));
        assert_ne!(s.values()[0], EMPTY_SET_SENTINEL);
        // Two identical singletons collide everywhere (J = 1); disjoint
        // singletons collide nowhere (J = 0).
        assert_eq!(s.jaccard_estimate(&scheme.sign(&[42])), 1.0);
        assert_eq!(s.jaccard_estimate(&scheme.sign(&[43])), 0.0);
    }

    #[test]
    fn densify_rotation_borrows_from_the_nearest_filled_bin_to_the_right() {
        let e = EMPTY_SET_SENTINEL;
        let mut slots = [e, 10, e, e, 20, e];
        densify_rotation(&mut slots);
        // Bin 0 borrows from bin 1; bins 2 and 3 from bin 4; bin 5 wraps
        // around to bin 1.
        assert_eq!(slots, [10, 10, 20, 20, 20, 10]);
        let mut all_empty = [e, e, e];
        densify_rotation(&mut all_empty);
        assert_eq!(all_empty, [e, e, e]);
        let mut full = [3u64, 2, 1];
        densify_rotation(&mut full);
        assert_eq!(full, [3, 2, 1]);
    }

    #[test]
    fn oph_sign_collection_matches_per_sample_signing() {
        let collection = SampleCollection::from_sorted_sets(vec![
            (0..300u64).collect(),
            (150..450u64).collect(),
            vec![],
            vec![9_999],
        ])
        .unwrap();
        let scheme = SignatureScheme::new(48).unwrap().with_kind(SignerKind::Oph);
        let signed = scheme.sign_collection(&collection);
        assert_eq!(signed.len(), 4 * 48);
        for (i, row) in signed.chunks_exact(48).enumerate() {
            assert_eq!(row, scheme.sign(collection.sample(i)).values());
        }
    }

    #[test]
    fn sign_batch_matches_per_sample_signing_for_both_signers() {
        // The incremental-index path signs delta batches of raw sets; the
        // result must be bit-identical to signing the same sets one by
        // one (and hence to a full `sign_collection` over them).
        let sets: Vec<Vec<u64>> = vec![
            (0..300u64).collect(),
            (150..450u64).collect(),
            Vec::new(),
            vec![9_999],
            (7..777u64).step_by(3).collect(),
        ];
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        for kind in [SignerKind::KMins, SignerKind::Oph] {
            let scheme = SignatureScheme::new(48).unwrap().with_kind(kind).with_seed(11);
            let batch = scheme.sign_batch(&refs);
            assert_eq!(batch.len(), sets.len() * 48);
            for (set, row) in sets.iter().zip(batch.chunks_exact(48)) {
                assert_eq!(row, scheme.sign(set).values(), "signer {kind}");
            }
            assert!(scheme.sign_batch(&[]).is_empty());
        }
    }

    #[test]
    fn signers_equal_a_naive_per_bin_reference() {
        /// Each position's minimum taken on its own (the sentinel when
        /// nothing reaches it), then OPH's densification.
        fn reference(scheme: &SignatureScheme, values: &[u64]) -> Vec<u64> {
            let len = scheme.len();
            match scheme.kind() {
                SignerKind::KMins => (0..len as u64)
                    .map(|i| {
                        let hi = splitmix64(scheme.seed() ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        values.iter().map(|&v| splitmix64(v ^ hi)).min()
                    })
                    .map(|min| min.unwrap_or(EMPTY_SET_SENTINEL))
                    .collect(),
                SignerKind::Oph => {
                    let seed = splitmix64(scheme.seed());
                    let bin = |h: u64| ((h as u128 * len as u128) >> 64) as usize;
                    let mut slots: Vec<u64> = (0..len)
                        .map(|b| {
                            let hashes = values.iter().map(|&v| splitmix64(v ^ seed));
                            hashes.filter(|&h| bin(h) == b).min().unwrap_or(EMPTY_SET_SENTINEL)
                        })
                        .collect();
                    densify_rotation(&mut slots);
                    slots
                }
            }
        }
        let len = 24;
        let seeded = |n: usize, seed: u64| -> Vec<u64> {
            (0..n as u64).map(|i| splitmix64(seed ^ i.wrapping_mul(0xA5A5))).collect()
        };
        // Values whose OPH hash lands in bin 5 under seed 3.
        let oph_seed = splitmix64(3);
        let one_bin: Vec<u64> = (0..)
            .filter(|&v: &u64| ((splitmix64(v ^ oph_seed) as u128 * len as u128) >> 64) == 5)
            .take(40)
            .collect();
        for kind in [SignerKind::KMins, SignerKind::Oph] {
            let scheme = SignatureScheme::new(len).unwrap().with_kind(kind).with_seed(3);
            let mut sets: Vec<Vec<u64>> =
                [0, 1, len - 1, len, 10 * len].iter().map(|&n| seeded(n, n as u64)).collect();
            sets.push(one_bin.clone());
            for set in &sets {
                let want = reference(&scheme, set);
                assert_eq!(scheme.sign(set).values(), &want[..], "{kind}, |set| = {}", set.len());
            }
        }
    }

    #[test]
    fn signer_kind_codes_round_trip() {
        for kind in [SignerKind::KMins, SignerKind::Oph] {
            assert_eq!(SignerKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(SignerKind::from_code(99), None);
        assert_eq!(SignerKind::KMins.to_string(), "kmins");
        assert_eq!(SignerKind::Oph.to_string(), "oph");
        let scheme = SignatureScheme::new(16).unwrap().with_kind(SignerKind::Oph).with_seed(3);
        assert!(scheme.describe().contains("oph") && scheme.describe().contains("len=16"));
    }

    #[test]
    fn signature_agreement_slice_form_matches_method() {
        let scheme = SignatureScheme::new(32).unwrap();
        let a = scheme.sign(&(0..500u64).collect::<Vec<_>>());
        let b = scheme.sign(&(250..750u64).collect::<Vec<_>>());
        assert_eq!(signature_agreement(a.values(), b.values()), a.agreement(&b));
    }

    #[test]
    fn seeded_hashers_differ_but_are_internally_consistent() {
        let a = MinHasher::new(32).unwrap().with_seed(1);
        let b = MinHasher::new(32).unwrap().with_seed(2);
        let values: Vec<u64> = (0..1000).collect();
        assert_ne!(a.sketch(&values).hashes(), b.sketch(&values).hashes());
        assert_eq!(a.sketch(&values), a.sketch(&values));
        assert_eq!(a.sketch_size(), 32);
    }
}
