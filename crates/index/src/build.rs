//! Building the LSH-banded sketch index over genome signatures.
//!
//! The index holds one k-mins MinHash signature per data sample plus, for
//! every band, a bucket table mapping the band's key (a hash of its `r`
//! signature rows) to the sorted list of sample ids whose signatures
//! produce that key. Buckets are stored flattened and key-sorted — binary
//! search at query time, plain little-endian pods at persistence time —
//! rather than as a hash map, so building, persisting and sharding all
//! traverse the same deterministic layout.

use std::collections::BTreeMap;

use gas_core::indicator::SampleCollection;
use gas_core::minhash::{splitmix64, MinHashSignature, SignatureScheme, SignerKind};
use serde::{Deserialize, Serialize};

use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;
use crate::segment::{Segment, SharedSegment};

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

/// The monolithic sketch index: one sealed [`Segment`] whose global
/// sample ids are the dense `0..n` of the built collection.
///
/// Since the segmented-lifecycle redesign this is a thin convenience
/// wrapper — [`crate::service::IndexOptions::build_index`] is literally
/// an [`IndexWriter`](crate::lifecycle::IndexWriter) staging the whole
/// collection followed by a single `commit()` — kept so one-shot callers
/// (build → persist → serve a static corpus) keep a direct API, and so
/// v1/v2 containers still deserialize into a ready-to-serve value.
/// Long-lived corpora that grow, shrink and compact should hold an
/// `IndexWriter` and take [`IndexReader`](crate::lifecycle::IndexReader)
/// snapshots instead.
#[derive(Debug, Clone)]
pub struct SketchIndex {
    segment: SharedSegment,
}

impl PartialEq for SketchIndex {
    /// Content equality: the segment id is lifecycle bookkeeping the
    /// v1/v2 container does not record, so it is ignored here (a rebuilt
    /// and a reloaded index compare equal).
    fn eq(&self, other: &Self) -> bool {
        self.segment.same_content(&other.segment)
    }
}

impl SketchIndex {
    /// Build the index over every sample of `collection`: an
    /// [`IndexWriter`](crate::lifecycle::IndexWriter) sealing the whole
    /// collection in one commit (the staging-free `commit_collection`
    /// path — signatures come straight off the collection's slices, no
    /// copies of the value sets are made). The public entry point is
    /// [`crate::service::IndexOptions::build_index`].
    pub(crate) fn build_monolithic(
        collection: &SampleCollection,
        config: &IndexConfig,
    ) -> IndexResult<Self> {
        let mut writer = crate::lifecycle::IndexWriter::new_in_memory(config)?;
        writer.commit_collection(collection)?;
        Ok(writer.reader().to_monolithic().expect("one fresh commit is dense and tombstone-free"))
    }

    /// Wrap an already-sealed segment (the lifecycle layer's path into
    /// the monolithic convenience type).
    pub(crate) fn from_segment(segment: SharedSegment) -> Self {
        SketchIndex { segment }
    }

    /// The underlying sealed segment.
    pub(crate) fn segment(&self) -> &SharedSegment {
        &self.segment
    }

    /// A single-segment reader snapshot over this index (no tombstones,
    /// generation 0) — the bridge from the monolithic convenience API to
    /// every multi-segment code path (query engine, distributed
    /// serving).
    pub fn as_reader(&self) -> crate::lifecycle::IndexReader {
        crate::lifecycle::IndexReader::from_single(self.segment.clone())
    }

    /// Reassemble an index from its parts (the persistence reader path).
    pub fn from_parts(
        scheme: SignatureScheme,
        params: LshParams,
        signatures: Vec<MinHashSignature>,
        set_sizes: Vec<u64>,
        names: Vec<String>,
        bands: Vec<BandBuckets>,
    ) -> IndexResult<Self> {
        let global_ids = (0..signatures.len() as u32).collect();
        let segment = Segment::from_parts(
            0, scheme, params, global_ids, signatures, set_sizes, names, bands,
        )?;
        Ok(SketchIndex { segment: SharedSegment::new(segment) })
    }

    /// Number of indexed samples.
    pub fn n(&self) -> usize {
        self.segment.n_rows()
    }

    /// The signature scheme (signer kind + length + seed) shared by
    /// index and queries.
    pub fn scheme(&self) -> &SignatureScheme {
        self.segment.scheme()
    }

    /// Check that a query-side scheme matches this index's scheme.
    ///
    /// Signatures are only comparable position by position when they come
    /// from the *same* signer, length and seed; a query signed under any
    /// other scheme would silently score garbage, so mismatches surface
    /// as a typed [`IndexError::SignerMismatch`].
    pub fn check_query_scheme(&self, query_scheme: &SignatureScheme) -> IndexResult<()> {
        if query_scheme != self.segment.scheme() {
            return Err(IndexError::SignerMismatch {
                index_scheme: self.segment.scheme().describe(),
                query_scheme: query_scheme.describe(),
            });
        }
        Ok(())
    }

    /// The banding parameters.
    pub fn params(&self) -> &LshParams {
        self.segment.params()
    }

    /// Signature of sample `id` (sample ids are the segment's dense
    /// local rows here).
    pub fn signature(&self, id: usize) -> &MinHashSignature {
        self.segment.signature(id)
    }

    /// All signatures, id-ordered.
    pub fn signatures(&self) -> &[MinHashSignature] {
        self.segment.signatures()
    }

    /// Original set cardinalities, id-ordered.
    pub fn set_sizes(&self) -> &[u64] {
        self.segment.set_sizes()
    }

    /// Sample names, id-ordered.
    pub fn names(&self) -> &[String] {
        self.segment.names()
    }

    /// The bucket table of `band`.
    pub fn band(&self, band: usize) -> &BandBuckets {
        self.segment.band(band)
    }

    /// The bucket key of `sig` in `band`.
    pub fn band_key(&self, band: usize, sig: &MinHashSignature) -> u64 {
        band_key(self.segment.params(), band, sig)
    }

    /// Candidate ids for a query signature, probing only the bands
    /// `band_filter` admits (the distributed path passes its shard's
    /// bands; the local path passes `|_| true`). Returned sorted and
    /// deduplicated so candidate sets are deterministic.
    pub fn candidates_where<F: Fn(usize) -> bool>(
        &self,
        sig: &MinHashSignature,
        band_filter: F,
    ) -> Vec<u32> {
        self.segment.candidates_where(sig, band_filter)
    }

    /// Candidate ids for a query signature over all bands.
    pub fn candidates(&self, sig: &MinHashSignature) -> Vec<u32> {
        self.candidates_where(sig, |_| true)
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
        assert_eq!(index.n(), 7);
        assert_eq!(index.params().signature_len(), 64);
        assert_eq!(index.set_sizes(), &collection.cardinalities()[..]);
        assert_eq!(index.names(), collection.names());
        // Every sample appears exactly once per band.
        for band in 0..index.params().bands() {
            let b = index.band(band);
            assert_eq!(b.ids().len(), 7);
            let mut seen: Vec<u32> = b.ids().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..7).collect::<Vec<_>>());
            assert_eq!(b.offsets().len(), b.len() + 1);
            assert!(!b.is_empty());
        }
        // A sample is always a candidate for its own signature.
        for id in 0..7usize {
            let cands = index.candidates(index.signature(id));
            assert!(cands.contains(&(id as u32)), "sample {id} not its own candidate");
        }
    }

    #[test]
    fn near_duplicates_collide_and_strangers_do_not() {
        let collection = family_collection();
        let config = IndexConfig::default().with_signature_len(128).with_threshold(0.5);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        // Family members (J ≈ 0.95) must be candidates of each other.
        let cands = index.candidates(index.signature(0));
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
        let cands = index.candidates(index.signature(0));
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

    #[test]
    fn from_parts_validates_shapes() {
        let collection = family_collection();
        let config = IndexConfig::default().with_signature_len(32);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        let rebuilt = SketchIndex::from_parts(
            *index.scheme(),
            *index.params(),
            index.signatures().to_vec(),
            index.set_sizes().to_vec(),
            index.names().to_vec(),
            (0..index.params().bands()).map(|b| index.band(b).clone()).collect(),
        )
        .unwrap();
        assert_eq!(rebuilt, index);
        // Wrong band count.
        assert!(SketchIndex::from_parts(
            *index.scheme(),
            *index.params(),
            index.signatures().to_vec(),
            index.set_sizes().to_vec(),
            index.names().to_vec(),
            vec![],
        )
        .is_err());
        // Mismatched metadata length.
        assert!(SketchIndex::from_parts(
            *index.scheme(),
            *index.params(),
            index.signatures().to_vec(),
            vec![],
            index.names().to_vec(),
            (0..index.params().bands()).map(|b| index.band(b).clone()).collect(),
        )
        .is_err());
    }
}
