//! The build-side vocabulary of the LSH-banded sketch index: the
//! [`IndexConfig`] an index is built under, and the per-band
//! [`BandBuckets`] table every sealed segment holds.
//!
//! A segment holds one MinHash signature per sample plus, for every
//! band, a bucket table mapping the band's key (a hash of its `r`
//! signature rows, [`band_key`]) to the sorted list of rows whose
//! signatures produce that key. Buckets are stored flattened and
//! key-sorted — binary search at query time, plain little-endian pods at
//! persistence time — rather than as a hash map, so building, persisting
//! and sharding all traverse the same deterministic layout.

use std::collections::BTreeMap;

use gas_core::minhash::{splitmix64, MinHashSignature, SignerKind};
use serde::{Deserialize, Serialize};

use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;

/// Configuration of an index build: signature size, signer, hash seed
/// and the target Jaccard threshold the banding is tuned for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexConfig {
    /// Signature length (number of min-wise positions per sample).
    pub signature_len: usize,
    /// Hash seed shared by all signatures of the index.
    pub seed: u64,
    /// Target Jaccard threshold the band/row split is derived from.
    pub threshold: f64,
    /// Which signer produces the signatures: classical k-mins
    /// (`O(len·|set|)` hashes) or one-permutation hashing
    /// (`O(|set| + len)`, the build-throughput choice).
    pub signer: SignerKind,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            signature_len: 128,
            seed: 0x0067_6173_5F69_6478,
            threshold: 0.5,
            signer: SignerKind::KMins,
        }
    }
}

impl IndexConfig {
    /// Override the signature length.
    pub fn with_signature_len(mut self, len: usize) -> Self {
        self.signature_len = len;
        self
    }

    /// Override the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the target threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Override the signer.
    pub fn with_signer(mut self, signer: SignerKind) -> Self {
        self.signer = signer;
        self
    }
}

/// One band's bucket table in flattened, key-sorted form.
///
/// `keys` is sorted and parallel to `offsets`: the ids of bucket
/// `keys[i]` are `ids[offsets[i] .. offsets[i + 1]]`, each list sorted
/// ascending. `u32` ids bound an index to 4 billion samples — far beyond
/// what one shard holds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandBuckets {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl BandBuckets {
    /// Assemble from raw flattened parts (the persistence reader path),
    /// validating the structural invariants.
    pub fn from_raw_parts(keys: Vec<u64>, offsets: Vec<u32>, ids: Vec<u32>) -> IndexResult<Self> {
        if offsets.len() != keys.len() + 1 {
            return Err(IndexError::Corrupt {
                context: format!("{} offsets for {} bucket keys", offsets.len(), keys.len()),
            });
        }
        if offsets.first() != Some(&0) || *offsets.last().unwrap() as usize != ids.len() {
            return Err(IndexError::Corrupt {
                context: "bucket offsets do not span the id array".into(),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(IndexError::Corrupt { context: "bucket offsets decrease".into() });
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::Corrupt {
                context: "bucket keys are not strictly increasing".into(),
            });
        }
        Ok(BandBuckets { keys, offsets, ids })
    }

    pub(crate) fn from_map(map: BTreeMap<u64, Vec<u32>>) -> Self {
        let mut keys = Vec::with_capacity(map.len());
        let mut offsets = Vec::with_capacity(map.len() + 1);
        offsets.push(0u32);
        let mut ids = Vec::new();
        for (key, members) in map {
            keys.push(key);
            ids.extend_from_slice(&members);
            offsets.push(ids.len() as u32);
        }
        BandBuckets { keys, offsets, ids }
    }

    /// Number of distinct buckets in this band.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the band has no buckets.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted bucket keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Bucket boundaries into [`Self::ids`].
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Concatenated bucket member ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The sample ids bucketed under `key` (empty when absent).
    pub fn get(&self, key: u64) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                let lo = self.offsets[i] as usize;
                let hi = self.offsets[i + 1] as usize;
                &self.ids[lo..hi]
            }
            Err(_) => &[],
        }
    }
}

/// The bucket key of band `band`: the band index folded with the band's
/// `r` signature rows through the splitmix finalizer. Including the band
/// index means identical row values in different bands do not alias to
/// the same key space.
pub fn band_key(params: &LshParams, band: usize, sig: &MinHashSignature) -> u64 {
    debug_assert_eq!(sig.len(), params.signature_len());
    let lo = band * params.rows();
    let hi = lo + params.rows();
    let mut h = splitmix64(0xB16B_00B5 ^ band as u64);
    for &v in &sig.values()[lo..hi] {
        h = splitmix64(h ^ v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::IndexOptions;
    use gas_core::indicator::SampleCollection;
    use gas_core::minhash::SignatureScheme;

    fn family_collection() -> SampleCollection {
        // Two families of three near-duplicates plus one loner.
        let base_a: Vec<u64> = (0..400u64).collect();
        let base_b: Vec<u64> = (10_000..10_400u64).collect();
        let mut samples = Vec::new();
        for i in 0..3u64 {
            let mut s = base_a.clone();
            s.extend(5_000 + 10 * i..5_000 + 10 * i + 10);
            samples.push(s);
        }
        for i in 0..3u64 {
            let mut s = base_b.clone();
            s.extend(20_000 + 10 * i..20_000 + 10 * i + 10);
            samples.push(s);
        }
        samples.push((90_000..90_400u64).collect());
        SampleCollection::from_sets(samples).unwrap()
    }

    #[test]
    fn build_produces_consistent_tables() {
        let collection = family_collection();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.5);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        // One commit: one segment, dense global ids, generation 1.
        assert_eq!((index.segments().len(), index.n_live(), index.generation()), (1, 7, 1));
        let segment = &index.segments()[0];
        assert_eq!(segment.global_ids(), (0..7).collect::<Vec<u32>>());
        assert_eq!(segment.params().signature_len(), 64);
        assert_eq!(segment.set_sizes(), &collection.cardinalities()[..]);
        assert_eq!(segment.names(), collection.names());
        // Every sample appears exactly once per band.
        for band in 0..segment.params().bands() {
            let b = segment.band(band);
            assert_eq!(b.ids().len(), 7);
            let mut seen: Vec<u32> = b.ids().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..7).collect::<Vec<_>>());
            assert_eq!(b.offsets().len(), b.len() + 1);
            assert!(!b.is_empty());
        }
        // A sample is always a candidate for its own signature.
        for id in 0..7usize {
            let cands = segment.candidates_where(segment.signature(id), |_| true);
            assert!(cands.contains(&(id as u32)), "sample {id} not its own candidate");
        }
    }

    #[test]
    fn near_duplicates_collide_and_strangers_do_not() {
        let collection = family_collection();
        let config = IndexConfig::default().with_signature_len(128).with_threshold(0.5);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let segment = &index.segments()[0];
        // Family members (J ≈ 0.95) must be candidates of each other.
        let cands = segment.candidates_where(segment.signature(0), |_| true);
        assert!(cands.contains(&1) && cands.contains(&2), "family not retrieved: {cands:?}");
        // The loner shares no bucket with family A (J = 0).
        assert!(!cands.contains(&6), "disjoint loner retrieved: {cands:?}");
    }

    #[test]
    fn oph_indexes_retrieve_near_duplicates_too() {
        let collection = family_collection();
        let config = IndexConfig::default()
            .with_signature_len(128)
            .with_threshold(0.5)
            .with_signer(SignerKind::Oph);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        assert_eq!(index.scheme().kind(), SignerKind::Oph);
        let segment = &index.segments()[0];
        let cands = segment.candidates_where(segment.signature(0), |_| true);
        assert!(cands.contains(&1) && cands.contains(&2), "family not retrieved: {cands:?}");
        assert!(!cands.contains(&6), "disjoint loner retrieved: {cands:?}");
    }

    #[test]
    fn check_query_scheme_rejects_any_scheme_drift() {
        let collection = family_collection();
        let config = IndexConfig::default().with_signature_len(64).with_signer(SignerKind::Oph);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        assert!(index.check_query_scheme(index.scheme()).is_ok());
        let wrong_kind = index.scheme().with_kind(SignerKind::KMins);
        assert!(matches!(
            index.check_query_scheme(&wrong_kind),
            Err(IndexError::SignerMismatch { .. })
        ));
        let wrong_seed = index.scheme().with_seed(index.scheme().seed() ^ 1);
        assert!(matches!(
            index.check_query_scheme(&wrong_seed),
            Err(IndexError::SignerMismatch { .. })
        ));
        let wrong_len = SignatureScheme::new(32)
            .unwrap()
            .with_seed(index.scheme().seed())
            .with_kind(SignerKind::Oph);
        assert!(matches!(
            index.check_query_scheme(&wrong_len),
            Err(IndexError::SignerMismatch { .. })
        ));
    }

    #[test]
    fn band_keys_depend_on_band_and_rows() {
        let scheme = SignatureScheme::new(8).unwrap();
        let params = LshParams::new(4, 2).unwrap();
        let sig = scheme.sign(&(0..100u64).collect::<Vec<_>>());
        let k0 = band_key(&params, 0, &sig);
        let k1 = band_key(&params, 1, &sig);
        assert_ne!(k0, k1, "band index must enter the key");
        assert_eq!(k0, band_key(&params, 0, &sig), "keys are deterministic");
    }

    #[test]
    fn bucket_lookup_and_raw_parts_validation() {
        let b = BandBuckets::from_raw_parts(vec![10, 20], vec![0, 2, 3], vec![5, 7, 1]).unwrap();
        assert_eq!(b.get(10), &[5, 7]);
        assert_eq!(b.get(20), &[1]);
        assert_eq!(b.get(15), &[] as &[u32]);
        assert_eq!(b.len(), 2);
        // Malformed flattenings are rejected.
        assert!(BandBuckets::from_raw_parts(vec![10], vec![0], vec![]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10], vec![0, 2], vec![1]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10, 10], vec![0, 1, 2], vec![1, 2]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![20, 10], vec![0, 1, 2], vec![1, 2]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10], vec![1, 1], vec![1]).is_err());
    }
}
