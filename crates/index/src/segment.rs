//! Immutable index segments — the unit of the LSM-style index lifecycle.
//!
//! A [`Segment`] is one sealed batch of samples: signatures, metadata,
//! per-band bucket tables and a mapping from *local* rows (the dense
//! `0..n` of this segment) to *global* sample ids (assigned once by the
//! `IndexWriter` and never reused). Bucket tables store local
//! rows, so a segment is self-contained: it can be built, persisted,
//! checksummed and sharded without knowing about any other segment.
//! Once sealed a segment's content never changes — deletes are
//! tombstones held by the manifest, and compaction *replaces* segments
//! instead of editing them. The one mutable part is its probe heat, an
//! observation of serving rather than content (see [`Segment`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gas_core::minhash::{MinHashSignature, SignatureScheme};

use crate::build::{band_key, BandBuckets};
use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;

/// One row of a segment under construction: everything compaction (or a
/// future ingestion tier) must carry over for a sample — its global id,
/// its already-computed signature, and its metadata. Compaction merges
/// rows from several segments *without re-signing*: signatures depend
/// only on sample content and scheme, so they move verbatim.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Global sample id (assigned at `add` time, stable for life).
    pub global_id: u32,
    /// The sample's min-wise signature under the index scheme.
    pub signature: MinHashSignature,
    /// Original set cardinality.
    pub set_size: u64,
    /// Sample name.
    pub name: String,
}

/// An immutable, sealed segment of the index.
///
/// Besides its rows a segment carries its probe heat: the probes and
/// candidate rows the query paths have drawn from it, read back through
/// [`SegmentStats`]. Heat is interior-mutable and is not content — it is
/// never persisted, equality ignores it (two segments are equal when
/// their id and rows are), a clone starts cold, and it lives exactly as
/// long as the shared allocation every snapshot holding this segment
/// points at. A compaction output or a reopened file therefore starts
/// cold.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    id: u64,
    scheme: SignatureScheme,
    params: LshParams,
    global_ids: Vec<u32>,
    signatures: Vec<MinHashSignature>,
    set_sizes: Vec<u64>,
    names: Vec<String>,
    bands: Vec<BandBuckets>,
    heat: SegmentHeat,
}

/// Probe heat of one segment: probes and the candidate rows they
/// surfaced. Relaxed counters — each is a monotone total read as a
/// whole, never used to order other memory.
#[derive(Debug, Default)]
struct SegmentHeat {
    probes: AtomicU64,
    candidates: AtomicU64,
}

/// Heat is an observation, not content: a copy starts cold.
impl Clone for SegmentHeat {
    fn clone(&self) -> Self {
        SegmentHeat::default()
    }
}

/// Heat is an observation, not content: it never breaks equality.
impl PartialEq for SegmentHeat {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Segment {
    /// Seal a segment from raw sets: sign the batch under the (already
    /// fixed) scheme and bucket every local row once per band. `sets`
    /// must be sorted, deduplicated value sets, parallel to `global_ids`
    /// and `names`; `global_ids` must be strictly increasing.
    pub(crate) fn sign_and_build(
        id: u64,
        scheme: SignatureScheme,
        params: LshParams,
        global_ids: Vec<u32>,
        names: Vec<String>,
        sets: &[&[u64]],
    ) -> IndexResult<Self> {
        let set_sizes = sets.iter().map(|s| s.len() as u64).collect();
        let signatures = scheme.sign_batch(sets);
        let bands = build_bands(&params, &signatures);
        Segment::from_parts(id, scheme, params, global_ids, signatures, set_sizes, names, bands)
    }

    /// Seal a segment from already-signed rows (the compaction path:
    /// merged inputs hand their rows over verbatim, bucket tables are
    /// rebuilt over the new local numbering). `rows` must be strictly
    /// increasing in `global_id`.
    pub(crate) fn from_rows(
        id: u64,
        scheme: SignatureScheme,
        params: LshParams,
        rows: Vec<SegmentRow>,
    ) -> IndexResult<Self> {
        let mut global_ids = Vec::with_capacity(rows.len());
        let mut signatures = Vec::with_capacity(rows.len());
        let mut set_sizes = Vec::with_capacity(rows.len());
        let mut names = Vec::with_capacity(rows.len());
        for row in rows {
            global_ids.push(row.global_id);
            signatures.push(row.signature);
            set_sizes.push(row.set_size);
            names.push(row.name);
        }
        let bands = build_bands(&params, &signatures);
        Segment::from_parts(id, scheme, params, global_ids, signatures, set_sizes, names, bands)
    }

    /// Reassemble a segment from its parts (the persistence reader
    /// path), validating every structural invariant.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        id: u64,
        scheme: SignatureScheme,
        params: LshParams,
        global_ids: Vec<u32>,
        signatures: Vec<MinHashSignature>,
        set_sizes: Vec<u64>,
        names: Vec<String>,
        bands: Vec<BandBuckets>,
    ) -> IndexResult<Self> {
        if params.signature_len() != scheme.len() {
            return Err(IndexError::Corrupt {
                context: format!(
                    "banding wants {}-long signatures but the scheme produces {}",
                    params.signature_len(),
                    scheme.len()
                ),
            });
        }
        if signatures.iter().any(|s| s.len() != scheme.len()) {
            return Err(IndexError::Corrupt {
                context: "stored signature length differs from the scheme".into(),
            });
        }
        let n = signatures.len();
        if set_sizes.len() != n || names.len() != n || global_ids.len() != n {
            return Err(IndexError::Corrupt {
                context: format!(
                    "{n} signatures but {} global ids, {} set sizes and {} names",
                    global_ids.len(),
                    set_sizes.len(),
                    names.len()
                ),
            });
        }
        if global_ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(IndexError::Corrupt {
                context: "segment global ids are not strictly increasing".into(),
            });
        }
        if bands.len() != params.bands() {
            return Err(IndexError::Corrupt {
                context: format!("{} band tables for {} bands", bands.len(), params.bands()),
            });
        }
        if bands.iter().any(|b| b.ids().iter().any(|&local| local as usize >= n)) {
            return Err(IndexError::Corrupt { context: "bucket row out of range".into() });
        }
        Ok(Segment {
            id,
            scheme,
            params,
            global_ids,
            signatures,
            set_sizes,
            names,
            bands,
            heat: SegmentHeat::default(),
        })
    }

    /// Segment id — unique within one index lifecycle, assigned at seal
    /// time, referenced by manifest generations.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The signature scheme shared by every segment of an index.
    pub fn scheme(&self) -> &SignatureScheme {
        &self.scheme
    }

    /// The banding parameters shared by every segment of an index.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// Number of rows stored (tombstoned rows included until compaction
    /// drops them).
    pub fn n_rows(&self) -> usize {
        self.signatures.len()
    }

    /// Whether the segment stores no rows.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The global sample ids of this segment's rows, strictly increasing.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The global id of local row `local`.
    pub fn global_id(&self, local: usize) -> u32 {
        self.global_ids[local]
    }

    /// The local row holding global id `id`, if this segment stores it.
    pub fn local_of(&self, id: u32) -> Option<usize> {
        self.global_ids.binary_search(&id).ok()
    }

    /// Signature of local row `local`.
    pub fn signature(&self, local: usize) -> &MinHashSignature {
        &self.signatures[local]
    }

    /// All signatures, local-row-ordered.
    pub fn signatures(&self) -> &[MinHashSignature] {
        &self.signatures
    }

    /// The raw signature words of local row `local`, or `None` past the
    /// end — the checked form shard extraction strides with.
    pub fn signature_words(&self, local: usize) -> Option<&[u64]> {
        self.signatures.get(local).map(|s| s.values())
    }

    /// Original set cardinalities, local-row-ordered.
    pub fn set_sizes(&self) -> &[u64] {
        &self.set_sizes
    }

    /// Sample names, local-row-ordered.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The bucket table of `band` (bucket members are local rows).
    pub fn band(&self, band: usize) -> &BandBuckets {
        &self.bands[band]
    }

    /// Candidate *local rows* for a query signature, probing only the
    /// bands `band_filter` admits (the distributed path passes its
    /// shard's bands; the local path passes `|_| true`). Sorted and
    /// deduplicated so candidate sets are deterministic.
    pub fn candidates_where<F: Fn(usize) -> bool>(
        &self,
        sig: &MinHashSignature,
        band_filter: F,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for band in 0..self.params.bands() {
            if !band_filter(band) {
                continue;
            }
            out.extend_from_slice(self.bands[band].get(band_key(&self.params, band, sig)));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Add `probes` probes that surfaced `candidates` candidate rows to
    /// this segment's heat.
    pub(crate) fn record_heat(&self, probes: u64, candidates: u64) {
        self.heat.probes.fetch_add(probes, Ordering::Relaxed);
        self.heat.candidates.fetch_add(candidates, Ordering::Relaxed);
    }

    /// The `(probes, candidates)` recorded so far.
    pub(crate) fn heat(&self) -> (u64, u64) {
        (self.heat.probes.load(Ordering::Relaxed), self.heat.candidates.load(Ordering::Relaxed))
    }

    /// The rows of this segment as carry-over records for compaction,
    /// skipping rows whose global id `dropped` admits (tombstones).
    pub(crate) fn live_rows<F: Fn(u32) -> bool>(&self, dropped: F) -> Vec<SegmentRow> {
        (0..self.n_rows())
            .filter(|&local| !dropped(self.global_ids[local]))
            .map(|local| SegmentRow {
                global_id: self.global_ids[local],
                signature: self.signatures[local].clone(),
                set_size: self.set_sizes[local],
                name: self.names[local].clone(),
            })
            .collect()
    }
}

/// Summary of one segment as seen through a reader snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Segment id.
    pub segment_id: u64,
    /// Rows stored in the segment.
    pub rows: usize,
    /// Rows still live (not tombstoned) under the snapshot.
    pub live_rows: usize,
    /// Probes of the segment so far (one per query per pass), summed
    /// over every snapshot and rank sharing it.
    pub probes: u64,
    /// Candidate rows those probes surfaced — the segment's fetch
    /// traffic.
    pub candidates: u64,
}

/// Shared by every segment builder: one key-sorted bucket table per
/// band, bucket members are local rows in ascending order.
fn build_bands(params: &LshParams, signatures: &[MinHashSignature]) -> Vec<BandBuckets> {
    (0..params.bands())
        .map(|band| {
            let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
            for (local, sig) in signatures.iter().enumerate() {
                map.entry(band_key(params, band, sig)).or_default().push(local as u32);
            }
            BandBuckets::from_map(map)
        })
        .collect()
}

/// Convenience alias: segments are always shared behind `Arc` (sealed
/// segments are immutable, so readers, writers and engines all hold the
/// same allocation).
pub type SharedSegment = Arc<Segment>;

#[cfg(test)]
mod tests {
    use super::*;
    use gas_core::minhash::SignerKind;

    fn scheme_and_params() -> (SignatureScheme, LshParams) {
        let scheme = SignatureScheme::new(32).unwrap().with_kind(SignerKind::Oph);
        let params = LshParams::for_threshold(32, 0.5).unwrap();
        (scheme, params)
    }

    #[test]
    fn sign_and_build_buckets_every_row_once_per_band() {
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> =
            vec![(0..200).collect(), (100..300).collect(), (10_000..10_200).collect()];
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let seg = Segment::sign_and_build(
            7,
            scheme,
            params,
            vec![4, 9, 11],
            vec!["a".into(), "b".into(), "c".into()],
            &refs,
        )
        .unwrap();
        assert_eq!(seg.id(), 7);
        assert_eq!(seg.n_rows(), 3);
        assert_eq!(seg.global_ids(), &[4, 9, 11]);
        assert_eq!(seg.local_of(9), Some(1));
        assert_eq!(seg.local_of(5), None);
        assert_eq!(seg.set_sizes(), &[200, 200, 200]);
        for band in 0..seg.params().bands() {
            let mut rows: Vec<u32> = seg.band(band).ids().to_vec();
            rows.sort_unstable();
            assert_eq!(rows, vec![0, 1, 2], "band {band}");
        }
        // Every row is a candidate of its own signature (local numbering).
        for local in 0..3usize {
            let cands = seg.candidates_where(seg.signature(local), |_| true);
            assert!(cands.contains(&(local as u32)));
        }
        // Signatures are exactly the scheme's signatures of the sets.
        for (local, set) in sets.iter().enumerate() {
            assert_eq!(seg.signature(local), &seg.scheme().sign(set));
        }
    }

    #[test]
    fn from_rows_preserves_signatures_and_rebuilds_buckets() {
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> = vec![(0..150).collect(), (75..225).collect()];
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let seg = Segment::sign_and_build(
            1,
            scheme,
            params,
            vec![0, 1],
            vec!["x".into(), "y".into()],
            &refs,
        )
        .unwrap();
        // Same rows, same id: an equal segment. The id is part of equality.
        let rebuilt = Segment::from_rows(1, scheme, params, seg.live_rows(|_| false)).unwrap();
        assert_eq!(rebuilt, seg);
        let renumbered = Segment::from_rows(2, scheme, params, seg.live_rows(|_| false)).unwrap();
        assert_ne!(renumbered, seg, "ids differ");
        // Dropping one row renumbers locals and keeps global ids.
        let pruned = Segment::from_rows(3, scheme, params, seg.live_rows(|id| id == 0)).unwrap();
        assert_eq!(pruned.global_ids(), &[1]);
        assert_eq!(pruned.signature(0), seg.signature(1));
    }

    #[test]
    fn heat_is_not_content() {
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> = vec![(0..150).collect()];
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let seg =
            Segment::sign_and_build(1, scheme, params, vec![0], vec!["x".into()], &refs).unwrap();
        let twin = Segment::from_rows(1, scheme, params, seg.live_rows(|_| false)).unwrap();
        seg.record_heat(3, 7);
        seg.record_heat(1, 2);
        assert_eq!((seg.heat(), twin.heat()), ((4, 9), (0, 0)));
        assert_eq!(seg, twin, "heating one of two equal segments keeps them equal");
        assert_eq!(seg.clone().heat(), (0, 0), "a copy starts cold");
    }

    #[test]
    fn from_parts_validates_invariants() {
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> = vec![(0..100).collect()];
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let seg =
            Segment::sign_and_build(1, scheme, params, vec![3], vec!["s".into()], &refs).unwrap();
        // Non-increasing global ids.
        assert!(Segment::from_parts(
            1,
            scheme,
            params,
            vec![3, 3],
            vec![seg.signature(0).clone(), seg.signature(0).clone()],
            vec![100, 100],
            vec!["s".into(), "t".into()],
            (0..params.bands()).map(|b| seg.band(b).clone()).collect(),
        )
        .is_err());
        // Mismatched metadata lengths.
        assert!(Segment::from_parts(
            1,
            scheme,
            params,
            vec![3],
            vec![seg.signature(0).clone()],
            vec![],
            vec!["s".into()],
            (0..params.bands()).map(|b| seg.band(b).clone()).collect(),
        )
        .is_err());
        // Wrong band count.
        assert!(Segment::from_parts(
            1,
            scheme,
            params,
            vec![3],
            vec![seg.signature(0).clone()],
            vec![100],
            vec!["s".into()],
            vec![],
        )
        .is_err());
    }
}
