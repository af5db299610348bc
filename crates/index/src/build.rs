//! The build-side vocabulary of the LSH-banded sketch index: the
//! [`IndexConfig`] an index is built under, and the per-band
//! [`BandBuckets`] table every sealed segment holds.
//!
//! A segment holds one MinHash signature per sample plus, for every
//! band, a bucket table mapping the band's key (a hash of its `r`
//! signature rows, [`band_key`]) to the sorted list of rows whose
//! signatures produce that key. Buckets are stored flattened and
//! key-sorted — plain little-endian pods at persistence time — rather
//! than as a hash map, so building, persisting and sharding all traverse
//! the same deterministic layout. Keys are splitmix outputs, uniform over
//! `u64`, so a lookup ([`BandBuckets::get`]) guesses the key's position
//! as `key · len / 2⁶⁴`, gallops from the guess to a bracket and
//! binary-searches inside it: a few comparisons within a few cache lines
//! of the guess on real tables, and never more than `2·⌈log₂ len⌉ + O(1)`
//! on any strictly increasing key set, a forged file's included. A query
//! hashes its `b` band keys once ([`band_keys`]) and probes every segment
//! with them.

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
/// ascending. No bucket is empty: `offsets` strictly increases, so every
/// stored key names at least one row. `u32` ids bound an index to 4
/// billion samples — far beyond what one shard holds.
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
        if offsets.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::Corrupt {
                context: "bucket offsets are not strictly increasing (a bucket is empty)".into(),
            });
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::Corrupt {
                context: "bucket keys are not strictly increasing".into(),
            });
        }
        let ascending =
            |w: &[u32]| ids[w[0] as usize..w[1] as usize].windows(2).all(|pair| pair[0] < pair[1]);
        if !offsets.windows(2).all(ascending) {
            return Err(IndexError::Corrupt {
                context: "bucket ids are not strictly increasing".into(),
            });
        }
        Ok(BandBuckets { keys, offsets, ids })
    }

    /// Build from one band's `(key, local row)` run, sorted ascending:
    /// each bucket is a maximal run of one key, its rows already in
    /// ascending order. The distinct keys are counted first, so `keys`,
    /// `offsets` and `ids` are allocated at exact capacity.
    pub(crate) fn from_sorted_run(run: &[(u64, u32)]) -> Self {
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "run not strictly sorted");
        let buckets = run.chunk_by(|a, b| a.0 == b.0);
        let distinct = buckets.clone().count();
        let mut keys = Vec::with_capacity(distinct);
        let mut offsets = Vec::with_capacity(distinct + 1);
        let mut end = 0u32;
        offsets.push(end);
        for bucket in buckets {
            keys.push(bucket[0].0);
            end += bucket.len() as u32;
            offsets.push(end);
        }
        let ids = run.iter().map(|&(_, local)| local).collect();
        BandBuckets { keys, offsets, ids }
    }

    /// `(len, capacity)` of `keys`, `offsets` and `ids`.
    #[cfg(test)]
    pub(crate) fn allocation(&self) -> [(usize, usize); 3] {
        [
            (self.keys.len(), self.keys.capacity()),
            (self.offsets.len(), self.offsets.capacity()),
            (self.ids.len(), self.ids.capacity()),
        ]
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
        match self.search(key) {
            Ok(i) => {
                let lo = self.offsets[i] as usize;
                let hi = self.offsets[i + 1] as usize;
                &self.ids[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// `self.keys.binary_search(&key)`, found from an interpolated guess:
    /// the keys are splitmix outputs, so `key · len / 2⁶⁴` lands near the
    /// key's rank. Gallop from the guess (steps 1, 2, 4, …) until a
    /// probe brackets the answer, then binary-search the bracket — at
    /// most `2·⌈log₂ len⌉ + O(1)` comparisons whatever the key set.
    fn search(&self, key: u64) -> Result<usize, usize> {
        let keys = &self.keys[..];
        let n = keys.len();
        if n == 0 {
            return Err(0);
        }
        let guess = ((u128::from(key) * n as u128) >> 64) as usize;
        // The answer (match or insertion point) lies in `lo..hi`, with
        // every key before `lo` below `key` and `keys[hi - 1] ≥ key`
        // unless `hi == n`.
        let (mut lo, mut hi) = (0, n);
        let mut step = 1;
        if keys[guess] < key {
            lo = guess + 1;
            while guess + step < n {
                if keys[guess + step] >= key {
                    hi = guess + step + 1;
                    break;
                }
                lo = guess + step + 1;
                step *= 2;
            }
        } else {
            hi = guess + 1;
            while step <= guess {
                if keys[guess - step] < key {
                    lo = guess - step + 1;
                    break;
                }
                hi = guess - step + 1;
                step *= 2;
            }
        }
        keys[lo..hi].binary_search(&key).map(|i| lo + i).map_err(|i| lo + i)
    }
}

/// The bucket keys of every band of `sig`, band-ordered: the `b` hashes
/// one query probes every segment of an index with.
pub fn band_keys(params: &LshParams, sig: &MinHashSignature) -> Vec<u64> {
    (0..params.bands()).map(|band| band_key(params, band, sig)).collect()
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
            let cands = segment
                .candidates_where(&band_keys(segment.params(), segment.signature(id)), |_| true);
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
        let cands =
            segment.candidates_where(&band_keys(segment.params(), segment.signature(0)), |_| true);
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
        let cands =
            segment.candidates_where(&band_keys(segment.params(), segment.signature(0)), |_| true);
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
        // No bucket may be empty.
        assert!(BandBuckets::from_raw_parts(vec![10, 20], vec![0, 0, 1], vec![1]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10, 20], vec![0, 1, 1], vec![1]).is_err());
        // Ids inside a bucket must strictly ascend; across buckets they
        // need not.
        assert!(BandBuckets::from_raw_parts(vec![10], vec![0, 2], vec![7, 5]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10], vec![0, 2], vec![5, 5]).is_err());
        assert!(BandBuckets::from_raw_parts(vec![10, 20], vec![0, 1, 2], vec![7, 5]).is_ok());
    }

    #[test]
    fn gallop_lookup_equals_binary_search() {
        /// `n` distinct keys, drawn by `draw(i)` for `i = 0, 1, …`.
        fn distinct(n: usize, draw: impl Fn(u64) -> u64) -> Vec<u64> {
            let mut keys = std::collections::BTreeSet::new();
            let mut i = 0;
            while keys.len() < n {
                keys.insert(draw(i));
                i += 1;
            }
            keys.into_iter().collect()
        }
        let key_set = |shape: &str, n: usize| match shape {
            "uniform" => distinct(n, splitmix64),
            "clustered" => distinct(n, |i| (7 << 40) + splitmix64(i) % (1 << 20)),
            // Rank far from `key · n / 2⁶⁴` for nearly every key.
            "geometric" => (0..n).map(|i| i as u64 + (1u64 << (63 * i / n))).collect(),
            _ => distinct(n, |i| match i % 2 {
                0 => splitmix64(i) % (1 << 20),
                _ => u64::MAX - splitmix64(i) % (1 << 20),
            }),
        };
        for shape in ["uniform", "clustered", "geometric", "two-cluster"] {
            for n in [0usize, 1, 2, 3, 64, 1_000] {
                let keys = key_set(shape, n);
                assert_eq!(keys.len(), n, "{shape}");
                let offsets = (0..=n as u32).collect();
                let b = BandBuckets::from_raw_parts(keys.clone(), offsets, (0..n as u32).collect())
                    .unwrap();
                // Every key, then absent keys: below the first, above the
                // last and between neighbours.
                let mut probes = keys.clone();
                probes.extend([0, 1, u64::MAX, u64::MAX - 1]);
                probes.extend(keys.first().map(|k| k.wrapping_sub(1)));
                probes.extend(keys.last().map(|k| k.wrapping_add(1)));
                probes.extend(keys.windows(2).map(|w| w[0] + (w[1] - w[0]) / 2));
                probes.extend(keys.iter().map(|k| k.wrapping_add(1)));
                for key in probes {
                    let want = keys.binary_search(&key);
                    assert_eq!(b.search(key), want, "{shape}, n = {n}, key {key:#x}");
                    let bucket: &[u32] = match want {
                        Ok(i) => &[i as u32],
                        Err(_) => &[],
                    };
                    assert_eq!(b.get(key), bucket, "{shape}, n = {n}, key {key:#x}");
                }
            }
        }
    }
}
