//! Immutable index segments — the unit of the LSM-style index lifecycle.
//!
//! A [`Segment`] is one sealed batch of samples: one row-major
//! `n_rows × len` signature matrix, metadata, per-band bucket tables and
//! a mapping from *local* rows (the dense `0..n` of this segment) to
//! *global* sample ids (assigned once by the `IndexWriter` and never
//! reused). Every layer that signs, seals, persists, opens, scores or
//! compacts reads and writes that one matrix: signing fills it, sealing
//! hashes each row's band keys in one pass over it, the container writes
//! and reads it as one run of words, scorers compare row slices of it,
//! and compaction copies live rows' slices into the merged matrix.
//! Bucket tables store local rows, so a segment is self-contained: it
//! can be built, persisted, checksummed and sharded without knowing
//! about any other segment. Once sealed a segment's content never
//! changes — deletes are tombstones held by the manifest, and compaction
//! *replaces* segments instead of editing them. The one mutable part is
//! its probe heat, an observation of serving rather than content (see
//! [`Segment`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gas_core::minhash::SignatureScheme;

use crate::build::{band_key, BandBuckets};
use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;

/// The rows of a segment about to be sealed, column by column: strictly
/// increasing global ids, the row-major `n × len` signature matrix, set
/// cardinalities and names. Every seal site — a commit, the pipeline's
/// signed commits, a whole-collection commit and compaction — fills one
/// and hands it to [`Segment::seal`]. Compaction carries rows over
/// *without re-signing* ([`Self::push_row`]): signatures depend only on
/// sample content and scheme, so their words move verbatim.
#[derive(Debug, Default)]
pub(crate) struct SignedRows {
    pub(crate) global_ids: Vec<u32>,
    pub(crate) signatures: Vec<u64>,
    pub(crate) set_sizes: Vec<u64>,
    pub(crate) names: Vec<String>,
}

impl SignedRows {
    /// Append local row `local` of `seg`: its signature slice is copied
    /// straight into this matrix.
    pub(crate) fn push_row(&mut self, seg: &Segment, local: usize) {
        self.global_ids.push(seg.global_ids[local]);
        self.signatures.extend_from_slice(seg.signature(local));
        self.set_sizes.push(seg.set_sizes[local]);
        self.names.push(seg.names[local].clone());
    }
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
    /// Row-major `n_rows × scheme.len()`.
    signatures: Vec<u64>,
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
    /// Seal a segment from signed rows: bucket every local row once per
    /// band (bucket tables are built over the new local numbering).
    /// `rows.global_ids` must be strictly increasing.
    pub(crate) fn seal(
        id: u64,
        scheme: SignatureScheme,
        params: LshParams,
        rows: SignedRows,
    ) -> IndexResult<Self> {
        let bands = build_bands(&params, &rows.signatures);
        Segment::from_parts(id, scheme, params, rows, bands)
    }

    /// Reassemble a segment from its parts (the persistence reader
    /// path), validating every structural invariant.
    pub(crate) fn from_parts(
        id: u64,
        scheme: SignatureScheme,
        params: LshParams,
        rows: SignedRows,
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
        let SignedRows { global_ids, signatures, set_sizes, names } = rows;
        let n = global_ids.len();
        if set_sizes.len() != n || names.len() != n {
            return Err(IndexError::Corrupt {
                context: format!(
                    "{n} global ids but {} set sizes and {} names",
                    set_sizes.len(),
                    names.len()
                ),
            });
        }
        if n.checked_mul(scheme.len()) != Some(signatures.len()) {
            return Err(IndexError::Corrupt {
                context: format!(
                    "a signature matrix of {} words for {n} rows of {}",
                    signatures.len(),
                    scheme.len()
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
        // Every band buckets each local row exactly once: `n` ids, all in
        // range, none twice. One pass per band over one reused bitmap.
        let mut seen = vec![0u64; n.div_ceil(64)];
        for (band, b) in bands.iter().enumerate() {
            if b.ids().len() != n {
                return Err(IndexError::Corrupt {
                    context: format!("band {band} buckets {} ids for {n} rows", b.ids().len()),
                });
            }
            seen.fill(0);
            for &local in b.ids() {
                let local = local as usize;
                if local >= n {
                    return Err(IndexError::Corrupt { context: "bucket row out of range".into() });
                }
                let (word, bit) = (local / 64, 1u64 << (local % 64));
                if seen[word] & bit != 0 {
                    return Err(IndexError::Corrupt {
                        context: format!("band {band} buckets row {local} twice"),
                    });
                }
                seen[word] |= bit;
            }
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
        self.global_ids.len()
    }

    /// Whether the segment stores no rows.
    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
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

    /// The signature of local row `local`: row `local` of the matrix.
    pub fn signature(&self, local: usize) -> &[u64] {
        let len = self.scheme.len();
        &self.signatures[local * len..(local + 1) * len]
    }

    /// The whole signature matrix: row-major, `n_rows × scheme().len()`
    /// words, local-row-ordered.
    pub fn signatures(&self) -> &[u64] {
        &self.signatures
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

    /// Candidate *local rows* for a query whose band keys are `keys` —
    /// [`band_keys`](crate::build::band_keys) of its signature under this
    /// segment's params, hashed once per query and shared by every
    /// segment — probing only the bands `band_filter` admits (the
    /// distributed path passes its shard's bands; the local path passes
    /// `|_| true`). Ascending and duplicate-free, so candidate sets are
    /// deterministic. The probed buckets are deduplicated through a
    /// bitmap over the local rows when it is no larger than the ids
    /// probed (`⌈n_rows/64⌉ ≤ ids`), so scanning it costs no more than
    /// the probe did, and by sort and dedup otherwise.
    pub fn candidates_where<F: Fn(usize) -> bool>(&self, keys: &[u64], band_filter: F) -> Vec<u32> {
        self.probe(keys, band_filter, |_| true, &mut Vec::new())
    }

    /// [`Self::candidates_where`] keeping only the rows `keep` admits
    /// (the reader's tombstone check, fused into the bitmap scan).
    /// `words` is the bitmap scratch: all zero between calls, grown to
    /// the largest segment probed, so one serves a query's every segment.
    pub(crate) fn probe<F, K>(
        &self,
        keys: &[u64],
        band_filter: F,
        keep: K,
        words: &mut Vec<u64>,
    ) -> Vec<u32>
    where
        F: Fn(usize) -> bool,
        K: Fn(u32) -> bool,
    {
        debug_assert_eq!(keys.len(), self.params.bands());
        let buckets: Vec<&[u32]> = self
            .bands
            .iter()
            .zip(keys)
            .enumerate()
            .filter(|&(band, _)| band_filter(band))
            .map(|(_, (buckets, &key))| buckets.get(key))
            .collect();
        let probed: usize = buckets.iter().map(|ids| ids.len()).sum();
        let n_words = self.n_rows().div_ceil(64);
        if n_words > probed {
            let mut out = buckets.concat();
            out.sort_unstable();
            out.dedup();
            out.retain(|&local| keep(local));
            return out;
        }
        if words.len() < n_words {
            words.resize(n_words, 0);
        }
        for &local in buckets.iter().flat_map(|ids| ids.iter()) {
            words[local as usize / 64] |= 1 << (local % 64);
        }
        let mut out = Vec::with_capacity(probed.min(self.n_rows()));
        for (w, word) in words[..n_words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let local = (w * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if keep(local) {
                    out.push(local);
                }
            }
        }
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

/// Shared by every seal: one key-sorted bucket table per band, bucket
/// members are local rows in ascending order. Each signature row is read
/// once — all `b` band keys are hashed in one pass over it into a
/// band-major key buffer (`n · b` words) — then each band's
/// `(key, local)` run is sorted and cut into buckets.
fn build_bands(params: &LshParams, signatures: &[u64]) -> Vec<BandBuckets> {
    let n = signatures.len() / params.signature_len();
    let mut keys = vec![0u64; params.bands() * n];
    for (local, row) in signatures.chunks_exact(params.signature_len()).enumerate() {
        for band in 0..params.bands() {
            keys[band * n + local] = band_key(params, band, row);
        }
    }
    let mut run: Vec<(u64, u32)> = Vec::with_capacity(n);
    (0..params.bands())
        .map(|band| {
            run.clear();
            run.extend(keys[band * n..(band + 1) * n].iter().copied().zip(0u32..));
            run.sort_unstable();
            BandBuckets::from_sorted_run(&run)
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
    use crate::build::band_keys;
    use gas_core::minhash::{splitmix64, SignerKind};

    /// A seeded signature of `len` positions drawn from `0..alphabet`: a
    /// small alphabet makes band keys collide into large buckets.
    fn random_signature(seed: u64, len: usize, alphabet: u64) -> Vec<u64> {
        (0..len as u64).map(|j| splitmix64(splitmix64(seed) ^ j) % alphabet).collect()
    }

    /// A segment of `rows` random signatures (16 positions, 8 bands of 2).
    fn random_segment(id: u64, rows: usize, alphabet: u64) -> Segment {
        let scheme = SignatureScheme::new(16).unwrap();
        let params = LshParams::new(8, 2).unwrap();
        let rows = SignedRows {
            global_ids: (0..rows as u32).collect(),
            signatures: (0..rows as u64)
                .flat_map(|local| random_signature(id << 32 | local, 16, alphabet))
                .collect(),
            set_sizes: vec![0; rows],
            names: vec![String::new(); rows],
        };
        Segment::seal(id, scheme, params, rows).unwrap()
    }

    /// `sets` signed under `scheme` as the rows `global_ids`, named
    /// `names`, and sealed — what a commit does.
    fn signed_segment(
        id: u64,
        (scheme, params): (SignatureScheme, LshParams),
        global_ids: Vec<u32>,
        names: &[&str],
        sets: &[Vec<u64>],
    ) -> Segment {
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let rows = SignedRows {
            global_ids,
            signatures: scheme.sign_batch(&refs),
            set_sizes: sets.iter().map(|s| s.len() as u64).collect(),
            names: names.iter().map(|&name| name.into()).collect(),
        };
        Segment::seal(id, scheme, params, rows).unwrap()
    }

    /// The rows of `seg` whose global id `keep` admits, carried over as
    /// compaction carries them.
    fn carried(seg: &Segment, keep: impl Fn(u32) -> bool) -> SignedRows {
        let mut rows = SignedRows::default();
        for local in (0..seg.n_rows()).filter(|&local| keep(seg.global_id(local))) {
            rows.push_row(seg, local);
        }
        rows
    }

    /// The concatenate-sort-dedup probe, over `binary_search`ed buckets.
    fn reference_probe(
        seg: &Segment,
        keys: &[u64],
        band_filter: &dyn Fn(usize) -> bool,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for band in (0..seg.params().bands()).filter(|&band| band_filter(band)) {
            let b = seg.band(band);
            if let Ok(i) = b.keys().binary_search(&keys[band]) {
                out.extend_from_slice(
                    &b.ids()[b.offsets()[i] as usize..b.offsets()[i + 1] as usize],
                );
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn probe_equals_concatenate_sort_dedup_on_both_sides_of_the_density_guard() {
        // (rows, alphabet): a sparse 20 000-row segment (buckets of ~1
        // row, so a probe stays below ⌈rows/64⌉ = 313 ids and sorts), a
        // dense one (buckets of ~2 000 rows: bitmap), a dense 64-row one
        // and a mid-size one near the guard.
        let shapes = [(64, 2), (20_000, 1_000), (1_000, 8), (20_000, 3), (64, 3)];
        let filters: [(&str, &dyn Fn(usize) -> bool); 5] = [
            ("all", &|_| true),
            ("none", &|_| false),
            ("even", &|band| band % 2 == 0),
            ("band 0", &|band| band == 0),
            ("band 5", &|band| band == 5),
        ];
        // One scratch for every probe: it grows to the largest segment and
        // must be all zero again after each.
        let mut words = Vec::new();
        let (mut bitmap_probes, mut sorted_probes) = (0, 0);
        for (s, &(rows, alphabet)) in shapes.iter().enumerate() {
            let seg = &random_segment(s as u64, rows, alphabet);
            let own = (0..4).map(|i| seg.signature(i * seg.n_rows() / 4).to_vec());
            let strangers = (0..4).map(|q| random_signature(1 << 40 | q, 16, alphabet));
            for sig in own.chain(strangers) {
                let keys = band_keys(seg.params(), &sig);
                for (name, filter) in filters {
                    let want = reference_probe(seg, &keys, filter);
                    assert_eq!(seg.candidates_where(&keys, filter), want, "segment {s}, {name}");
                    // Tombstones on the first and last candidate of every
                    // bitmap word, plus a seeded fifth of the rest.
                    let mut dead: Vec<u32> = want
                        .chunk_by(|a, b| a / 64 == b / 64)
                        .flat_map(|word| [word[0], word[word.len() - 1]])
                        .chain(
                            want.iter()
                                .copied()
                                .filter(|&l| splitmix64(l as u64).is_multiple_of(5)),
                        )
                        .collect();
                    dead.sort_unstable();
                    let live = |local: u32| dead.binary_search(&local).is_err();
                    let got = seg.probe(&keys, filter, live, &mut words);
                    let want_live: Vec<u32> = want.iter().copied().filter(|&l| live(l)).collect();
                    assert_eq!(got, want_live, "segment {s}, {name}, tombstoned");
                    assert!(words.iter().all(|&w| w == 0), "scratch left dirty");

                    let probed: usize = (0..seg.params().bands())
                        .filter(|&band| filter(band))
                        .map(|band| seg.band(band).get(keys[band]).len())
                        .sum();
                    if probed > 0 && seg.n_rows().div_ceil(64) <= probed {
                        bitmap_probes += 1;
                    } else if probed > 0 {
                        sorted_probes += 1;
                    }
                }
            }
        }
        assert_eq!(words.len(), 20_000usize.div_ceil(64), "sized to the largest bitmap probe");
        assert!(bitmap_probes >= 10 && sorted_probes >= 10, "{bitmap_probes} / {sorted_probes}");
    }

    #[test]
    fn from_parts_rejects_a_band_that_omits_or_repeats_a_row() {
        let seg = random_segment(9, 8, 2);
        let b = seg.band(0);
        let buckets: Vec<Vec<u32>> = b
            .offsets()
            .windows(2)
            .map(|w| b.ids()[w[0] as usize..w[1] as usize].to_vec())
            .collect();
        assert!(buckets.len() >= 2, "band 0 needs two buckets: {buckets:?}");
        let with_band0 = |buckets: Vec<Vec<u32>>| {
            let offsets = std::iter::once(0)
                .chain(buckets.iter().scan(0, |end, members| {
                    *end += members.len() as u32;
                    Some(*end)
                }))
                .collect();
            let band0 = BandBuckets::from_raw_parts(b.keys().to_vec(), offsets, buckets.concat())?;
            let mut bands: Vec<BandBuckets> =
                (0..seg.params().bands()).map(|band| seg.band(band).clone()).collect();
            bands[0] = band0;
            Segment::from_parts(
                seg.id(),
                *seg.scheme(),
                *seg.params(),
                carried(&seg, |_| true),
                bands,
            )
        };
        assert_eq!(with_band0(buckets.clone()).unwrap(), seg, "the unmutated band reassembles");
        let x = buckets[0][0];
        // Row `x` also in a second bucket: one id too many.
        let mut twice = buckets.clone();
        twice[1].push(x);
        twice[1].sort_unstable();
        // Row `x` in a second bucket in place of that bucket's first row:
        // the id count still matches, the bitmap pass catches it.
        let mut displaced = buckets.clone();
        displaced[1][0] = x;
        displaced[1].sort_unstable();
        // Row `x` in no bucket.
        let mut dropped = buckets.clone();
        dropped[0].remove(0);
        for (case, mutated) in [("twice", twice), ("displaced", displaced), ("dropped", dropped)] {
            assert!(
                matches!(with_band0(mutated), Err(IndexError::Corrupt { .. })),
                "{case} accepted"
            );
        }
    }

    #[test]
    fn bucket_tables_equal_a_btreemap_build_at_exact_capacity() {
        /// The ordered-map build the sorted run replaced.
        fn reference_band(seg: &Segment, band: usize) -> BandBuckets {
            let mut map: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
            for (local, sig) in seg.signatures().chunks_exact(seg.scheme().len()).enumerate() {
                map.entry(band_key(seg.params(), band, sig)).or_default().push(local as u32);
            }
            let offsets = std::iter::once(0)
                .chain(map.values().scan(0, |end, members| {
                    *end += members.len() as u32;
                    Some(*end)
                }))
                .collect();
            let keys = map.keys().copied().collect();
            BandBuckets::from_raw_parts(keys, offsets, map.into_values().flatten().collect())
                .unwrap()
        }
        // (rows, alphabet, widest bucket's range): empty and one-row
        // segments, (nearly) singleton buckets, and buckets of thousands
        // of rows (an alphabet of 2 or 3 over 2-row bands leaves 4 or 9
        // keys).
        for (rows, alphabet, widest_range) in [
            (0, 1_000, 0..=0),
            (1, 1_000, 1..=1),
            (300, 1_000, 1..=2),
            (6_000, 2, 1_000..=6_000),
            (6_000, 3, 600..=6_000),
        ] {
            let seg = random_segment(rows as u64, rows, alphabet);
            for band in 0..seg.params().bands() {
                let built = seg.band(band);
                assert_eq!(built, &reference_band(&seg, band), "{rows} rows, band {band}");
                for (len, capacity) in built.allocation() {
                    assert_eq!(len, capacity, "{rows} rows, band {band}");
                }
                let widest = built.offsets().windows(2).map(|w| w[1] - w[0]).max();
                assert!(widest_range.contains(&widest.unwrap_or(0)), "{rows} rows, band {band}");
            }
        }
    }

    fn scheme_and_params() -> (SignatureScheme, LshParams) {
        let scheme = SignatureScheme::new(32).unwrap().with_kind(SignerKind::Oph);
        let params = LshParams::for_threshold(32, 0.5).unwrap();
        (scheme, params)
    }

    #[test]
    fn seal_buckets_every_row_once_per_band() {
        let sets: Vec<Vec<u64>> =
            vec![(0..200).collect(), (100..300).collect(), (10_000..10_200).collect()];
        let seg = signed_segment(7, scheme_and_params(), vec![4, 9, 11], &["a", "b", "c"], &sets);
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
            let cands =
                seg.candidates_where(&band_keys(seg.params(), seg.signature(local)), |_| true);
            assert!(cands.contains(&(local as u32)));
        }
        // Signatures are exactly the scheme's signatures of the sets.
        for (local, set) in sets.iter().enumerate() {
            assert_eq!(seg.signature(local), seg.scheme().sign(set).values());
        }
    }

    #[test]
    fn carried_rows_keep_signatures_and_rebuild_buckets() {
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> = vec![(0..150).collect(), (75..225).collect()];
        let seg = signed_segment(1, (scheme, params), vec![0, 1], &["x", "y"], &sets);
        // Same rows, same id: an equal segment. The id is part of equality.
        let rebuilt = Segment::seal(1, scheme, params, carried(&seg, |_| true)).unwrap();
        assert_eq!(rebuilt, seg);
        let renumbered = Segment::seal(2, scheme, params, carried(&seg, |_| true)).unwrap();
        assert_ne!(renumbered, seg, "ids differ");
        // Dropping one row renumbers locals and keeps global ids.
        let pruned = Segment::seal(3, scheme, params, carried(&seg, |id| id != 0)).unwrap();
        assert_eq!(pruned.global_ids(), &[1]);
        assert_eq!(pruned.signature(0), seg.signature(1));
    }

    #[test]
    fn heat_is_not_content() {
        let (scheme, params) = scheme_and_params();
        let seg = signed_segment(1, (scheme, params), vec![0], &["x"], &[(0..150).collect()]);
        let twin = Segment::seal(1, scheme, params, carried(&seg, |_| true)).unwrap();
        seg.record_heat(3, 7);
        seg.record_heat(1, 2);
        assert_eq!((seg.heat(), twin.heat()), ((4, 9), (0, 0)));
        assert_eq!(seg, twin, "heating one of two equal segments keeps them equal");
        assert_eq!(seg.clone().heat(), (0, 0), "a copy starts cold");
    }

    #[test]
    fn from_parts_validates_invariants() {
        let (scheme, params) = scheme_and_params();
        let seg = signed_segment(1, (scheme, params), vec![3], &["s"], &[(0..100).collect()]);
        let bands = || (0..params.bands()).map(|b| seg.band(b).clone()).collect();
        let sig = seg.signature(0);
        // Non-increasing global ids.
        let rows = SignedRows {
            global_ids: vec![3, 3],
            signatures: [sig, sig].concat(),
            set_sizes: vec![100, 100],
            names: vec!["s".into(), "t".into()],
        };
        assert!(Segment::from_parts(1, scheme, params, rows, bands()).is_err());
        // Mismatched metadata lengths.
        let rows = SignedRows {
            global_ids: vec![3],
            signatures: sig.to_vec(),
            set_sizes: vec![],
            names: vec!["s".into()],
        };
        assert!(Segment::from_parts(1, scheme, params, rows, bands()).is_err());
        // Wrong band count.
        assert!(Segment::from_parts(1, scheme, params, carried(&seg, |_| true), vec![]).is_err());
    }

    #[test]
    fn a_signature_matrix_of_the_wrong_length_is_corrupt() {
        // The matrix must hold exactly `rows × len` words: one short, one
        // long, or a whole row long (which a per-row check could not see
        // without a row count) are all typed corruption.
        let (scheme, params) = scheme_and_params();
        let sets: Vec<Vec<u64>> = vec![(0..100).collect(), (50..150).collect()];
        let seg = signed_segment(1, (scheme, params), vec![3, 4], &["s", "t"], &sets);
        let bands = || (0..params.bands()).map(|b| seg.band(b).clone()).collect();
        let with_matrix = |signatures: Vec<u64>| {
            let rows = SignedRows { signatures, ..carried(&seg, |_| true) };
            Segment::from_parts(1, scheme, params, rows, bands())
        };
        assert_eq!(with_matrix(seg.signatures().to_vec()).unwrap(), seg);
        let full = seg.signatures();
        let one_word_long = [full, &[7]].concat();
        let one_row_long = [full, seg.signature(0)].concat();
        for (case, matrix) in [
            ("one word short", full[..full.len() - 1].to_vec()),
            ("one word long", one_word_long),
            ("one row long", one_row_long),
            ("empty", Vec::new()),
        ] {
            let got = with_matrix(matrix);
            assert!(matches!(got, Err(IndexError::Corrupt { .. })), "{case}: {got:?}");
        }
    }
}
