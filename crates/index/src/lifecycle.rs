//! The segmented index lifecycle: [`IndexWriter`] → [`IndexReader`] →
//! [`Compactor`].
//!
//! A one-shot `IndexOptions::build_index` assumes a static corpus; a
//! served system ingests new genome samples continuously. This module
//! makes the sketch index a long-lived, mutable *service* built from
//! immutable parts, the LSM shape of production similarity-serving
//! systems (the one-shot build is simply its first commit):
//!
//! * an [`IndexWriter`] **stages** samples and deletes; `commit()` signs
//!   the staged batch under the index's one fixed
//!   [`SignatureScheme`] (cost
//!   proportional to the *delta*, not the corpus), seals it into an
//!   immutable checksummed [`Segment`], records deletes as tombstones,
//!   and bumps the manifest generation;
//! * an [`IndexReader`] is an **atomic snapshot** over a set of sealed
//!   segments plus a tombstone set — cheap to clone (shared `Arc`s),
//!   never sees half a commit, and serves queries through
//!   [`QueryEngine`](crate::query::QueryEngine) with answers
//!   bit-identical to a fresh one-commit build over the same live
//!   corpus;
//! * a [`Compactor`] **merges** small segments into one under a
//!   size-tiered policy, rewriting bucket tables over the merged local
//!   numbering and physically dropping tombstoned rows (whose ids then
//!   leave the tombstone set — ids are never reused, so a dropped row
//!   can never resurface).
//!
//! Persistence is the container file (`crate::container`): append-only
//! segment and manifest blocks, every block checksummed, the manifest
//! written *last* so a crash mid-commit truncates to a torn tail and the
//! file falls back to the previous manifest generation.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gas_chaos::{RealFs, Storage};
use gas_core::indicator::SampleCollection;
use gas_core::minhash::{MinHashSignature, SignatureScheme};

use crate::build::IndexConfig;
use crate::container::{self, ManifestRecord, ManifestSegmentRef};
use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;
use crate::segment::{Segment, SegmentRow, SegmentStats, SharedSegment};

/// What one `commit()` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitSummary {
    /// The manifest generation after the commit.
    pub generation: u64,
    /// Id of the segment this commit sealed (`None` for a deletes-only
    /// or empty commit).
    pub sealed_segment: Option<u64>,
    /// Rows sealed into the new segment.
    pub rows_added: usize,
    /// Staged deletes turned into tombstones.
    pub deletes_applied: usize,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionSummary {
    /// The manifest generation after the pass (unchanged for a no-op).
    pub generation: u64,
    /// Segment groups merged.
    pub groups_merged: usize,
    /// Live segments before the pass.
    pub segments_before: usize,
    /// Live segments after the pass.
    pub segments_after: usize,
    /// Tombstoned rows physically dropped (their ids leave the
    /// tombstone set).
    pub tombstones_purged: usize,
    /// Rows written into merged segments.
    pub rows_written: usize,
}

/// What one `vacuum()` did. Vacuum reclaims the space of dead blocks
/// (compacted-away segments, superseded manifests) by rewriting the
/// backing file; when the file is already a minimal image of the live
/// state — or there is no file — vacuum is a true no-op: no rewrite, no
/// mtime churn, no generation bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VacuumReport {
    /// Bytes the rewrite reclaimed (0 for a no-op).
    pub bytes_reclaimed: u64,
    /// Whether the backing file was actually rewritten.
    pub rewritten: bool,
}

/// How an on-disk index was recovered by `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The manifest generation the file opened at.
    pub generation: u64,
    /// Bytes after the last valid manifest (a torn commit tail); they
    /// are discarded by the next commit.
    pub torn_bytes: usize,
}

/// Committed lifecycle state shared by writer and reader loading paths.
struct LifecycleState {
    scheme: SignatureScheme,
    params: LshParams,
    segments: Vec<SharedSegment>,
    /// The `SEG` block of each manifest-referenced segment, by id.
    segment_blocks: Vec<(u64, SegmentBlock)>,
    tombstones: Vec<u32>,
    next_id: u32,
    next_segment_id: u64,
    generation: u64,
    valid_len: u64,
    manifest_len: u64,
    /// A checksum-valid block of an unknown kind follows the opened
    /// generation — written by a newer build. Readers may proceed;
    /// writers must refuse (their truncate-then-append would destroy
    /// it).
    foreign_kind: Option<[u8; 4]>,
}

fn load_state(bytes: &[u8]) -> IndexResult<(LifecycleState, RecoveryReport)> {
    let scan = container::scan_v3(bytes)?;
    let manifest = scan.manifest.ok_or_else(|| {
        IndexError::NoLiveGeneration("no valid manifest block survives in the file".into())
    })?;
    let mut segments = Vec::with_capacity(manifest.segments.len());
    let mut segment_blocks = Vec::with_capacity(manifest.segments.len());
    for sref in &manifest.segments {
        let scanned = scan.segments.get(&sref.id).ok_or_else(|| IndexError::Corrupt {
            context: format!(
                "manifest generation {} references missing segment {}",
                manifest.generation, sref.id
            ),
        })?;
        let segment = &scanned.segment;
        if scanned.crc != sref.crc || segment.n_rows() != sref.rows as usize {
            return Err(IndexError::Corrupt {
                context: format!(
                    "manifest generation {} disagrees with segment {} on disk",
                    manifest.generation, sref.id
                ),
            });
        }
        if segment.scheme() != &manifest.scheme || segment.params() != &manifest.params {
            return Err(IndexError::Corrupt {
                context: format!(
                    "segment {} was sealed under a different scheme than the manifest",
                    sref.id
                ),
            });
        }
        // Every manifest-referenced segment sits in the valid prefix, its
        // payload checksum verified by the scan.
        segment_blocks
            .push((sref.id, SegmentBlock { crc: scanned.crc, len: scanned.len, on_disk: true }));
        segments.push(segment.clone());
    }
    // Cross-invariants a checksum-valid but buggy/forged manifest could
    // still violate: global ids must be disjoint across segments and below
    // the id high-water mark (or `add` would silently reuse a live id), and
    // every tombstone must point at a stored row (or live-row accounting
    // would underflow).
    let mut all_ids: Vec<u32> =
        segments.iter().flat_map(|s| s.global_ids().iter().copied()).collect();
    all_ids.sort_unstable();
    if all_ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(IndexError::Corrupt {
            context: "a global id is stored by two segments".into(),
        });
    }
    if all_ids.last().is_some_and(|&max| max >= manifest.next_id) {
        return Err(IndexError::Corrupt {
            context: format!(
                "manifest id high-water mark {} does not cover stored ids",
                manifest.next_id
            ),
        });
    }
    if let Some(&orphan) = manifest.tombstones.iter().find(|&&t| all_ids.binary_search(&t).is_err())
    {
        return Err(IndexError::Corrupt {
            context: format!("tombstone {orphan} points at no stored row"),
        });
    }
    let state = LifecycleState {
        scheme: manifest.scheme,
        params: manifest.params,
        segments,
        segment_blocks,
        tombstones: manifest.tombstones,
        next_id: manifest.next_id,
        next_segment_id: scan.max_segment_id + 1,
        generation: manifest.generation,
        valid_len: scan.valid_len as u64,
        manifest_len: scan.manifest_len,
        foreign_kind: scan.foreign_kind,
    };
    let report = RecoveryReport { generation: state.generation, torn_bytes: scan.torn_bytes };
    Ok((state, report))
}

/// One staged (not yet committed) sample. `pub(crate)` so the commit
/// pipeline can carry a taken batch to a signer thread.
#[derive(Debug, Clone)]
pub(crate) struct StagedSample {
    pub(crate) name: String,
    pub(crate) values: Vec<u64>,
}

/// A staged batch handed off to the commit pipeline by
/// [`IndexWriter::take_staged`]: the samples keep the global ids they
/// were assigned at `add` time (`base..base + samples.len()`), and the
/// staged deletes ride along to be applied by the same commit.
#[derive(Debug)]
pub(crate) struct StagedBatch {
    /// Global id of the first staged sample.
    pub(crate) base: u32,
    pub(crate) samples: Vec<StagedSample>,
    pub(crate) deletes: BTreeSet<u32>,
}

/// The mutable half of the lifecycle: stages samples and deletes,
/// seals immutable segments on `commit()`, and (optionally) keeps a
/// container-v3 file on disk in sync, crash-safely.
#[derive(Debug)]
pub struct IndexWriter {
    scheme: SignatureScheme,
    params: LshParams,
    segments: Vec<SharedSegment>,
    /// The `SEG` block of each live segment that has been framed (or
    /// verified by the open scan), by segment id. `persist` appends every
    /// live segment whose block is *not* on disk — not just the newest
    /// one — so a failed persist (disk full, transient I/O error) leaves
    /// memory ahead of disk but the next successful persist writes the
    /// missing blocks before the manifest that references them.
    blocks: BTreeMap<u64, SegmentBlock>,
    tombstones: BTreeSet<u32>,
    staged: Vec<StagedSample>,
    staged_deletes: BTreeSet<u32>,
    /// Rows taken by the commit pipeline ([`Self::take_staged`]) but not
    /// yet sealed by [`Self::commit_signed_rows`]. Like staged rows they
    /// are invisible to readers and excluded from the committed id
    /// high-water mark.
    in_flight: u32,
    /// Next global id to assign (staged samples included).
    next_id: u32,
    next_segment_id: u64,
    generation: u64,
    path: Option<PathBuf>,
    /// Length of the validated v3 prefix on disk; a torn tail beyond it
    /// is truncated before the next append.
    valid_len: u64,
    /// Framed length of the newest manifest block, recorded whenever one
    /// is framed (persist, rewrite) or found by the open scan. With the
    /// cached `SEG` lengths in `blocks` it gives the minimal image of the
    /// live state without framing it: [`Self::file_live_bytes`].
    manifest_len: u64,
    /// Committed state not yet flushed to disk (a previous persist
    /// failed). Any later `commit()` — even an otherwise-empty one —
    /// retries the flush.
    dirty: bool,
    /// The backing file is exactly the minimal image of the live state
    /// (a fresh `rewrite_file` with nothing appended since): vacuum has
    /// nothing to reclaim and must not churn the file.
    clean: bool,
    /// Every byte this writer moves to or from disk goes through here.
    /// [`RealFs`] by default; chaos drills swap in a
    /// [`gas_chaos::ChaosStorage`] to inject short/torn writes,
    /// transient errors and fsync loss at every I/O site.
    storage: Arc<dyn Storage>,
}

/// What a writer knows of one live segment's `SEG` block.
#[derive(Debug, Clone, Copy)]
struct SegmentBlock {
    /// The payload checksum: computed when the segment is first framed
    /// (or taken from the open scan that verified it) and reused by every
    /// later frame, since a sealed segment's payload never changes.
    crc: u64,
    /// The framed length (block header plus payload), learnt with `crc`
    /// and fixed for the same reason.
    len: u64,
    /// The block sits in the valid on-disk prefix.
    on_disk: bool,
}

impl IndexWriter {
    /// A fresh, empty, in-memory writer (no backing file): signature
    /// scheme and banding parameters are fixed here, for the life of the
    /// index — every segment ever sealed must be signed identically or
    /// signatures would not be comparable across segments. The public
    /// entry point is [`crate::service::IndexOptions::open_writer`].
    pub(crate) fn new_in_memory(config: &IndexConfig) -> IndexResult<Self> {
        let params = LshParams::for_threshold(config.signature_len, config.threshold)?;
        let scheme = SignatureScheme::new(config.signature_len)?
            .with_seed(config.seed)
            .with_kind(config.signer);
        Ok(IndexWriter {
            scheme,
            params,
            segments: Vec::new(),
            blocks: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            staged: Vec::new(),
            staged_deletes: BTreeSet::new(),
            in_flight: 0,
            next_id: 0,
            next_segment_id: 1,
            generation: 0,
            path: None,
            valid_len: 0,
            manifest_len: 0,
            dirty: false,
            clean: false,
            storage: Arc::new(RealFs),
        })
    }

    /// A fresh writer backed by a new container-v3 file at `path`
    /// (created or truncated): the file immediately holds a valid
    /// generation-0 manifest, so it is openable from the first byte
    /// flushed. The public entry point is
    /// [`crate::service::IndexOptions::create_writer_at`].
    pub(crate) fn new_at(path: impl AsRef<Path>, config: &IndexConfig) -> IndexResult<Self> {
        let mut writer = IndexWriter::new_in_memory(config)?;
        writer.path = Some(path.as_ref().to_path_buf());
        writer.rewrite_file()?;
        Ok(writer)
    }

    /// Open an existing index file read-write, resuming at its newest
    /// intact manifest generation (a torn commit tail is discarded by
    /// the next commit). A file this build cannot write safely — an older
    /// format version, or blocks from a newer build — is refused with a
    /// typed error and left untouched.
    pub fn open(path: impl AsRef<Path>) -> IndexResult<Self> {
        IndexWriter::open_with_report(path).map(|(w, _)| w)
    }

    /// [`Self::open`], also reporting what recovery did.
    pub fn open_with_report(path: impl AsRef<Path>) -> IndexResult<(Self, RecoveryReport)> {
        IndexWriter::open_with_storage(path, Arc::new(RealFs))
    }

    /// [`Self::open_with_report`] through an explicit [`Storage`] —
    /// chaos drills open through a fault-injecting storage so even the
    /// recovery read can fail transiently.
    pub fn open_with_storage(
        path: impl AsRef<Path>,
        storage: Arc<dyn Storage>,
    ) -> IndexResult<(Self, RecoveryReport)> {
        let path = path.as_ref().to_path_buf();
        let (state, report) = load_state(&storage.read(&path)?)?;
        if let Some(kind) = state.foreign_kind {
            // A newer build wrote blocks after the generation this build
            // understands. Opening read-write would truncate them on the
            // next commit — silent destruction of someone else's data —
            // so only `IndexReader::open` may proceed.
            return Err(IndexError::ForeignBlocks {
                kind: String::from_utf8_lossy(&kind).trim_end_matches('\0').to_string(),
            });
        }
        let writer = IndexWriter {
            scheme: state.scheme,
            params: state.params,
            blocks: state.segment_blocks.into_iter().collect(),
            segments: state.segments,
            tombstones: state.tombstones.into_iter().collect(),
            staged: Vec::new(),
            staged_deletes: BTreeSet::new(),
            in_flight: 0,
            next_id: state.next_id,
            next_segment_id: state.next_segment_id,
            generation: state.generation,
            path: Some(path),
            valid_len: state.valid_len,
            manifest_len: state.manifest_len,
            dirty: false,
            // Conservative: the opened file may or may not carry dead
            // blocks; the first vacuum after an open rewrites once and
            // re-establishes cleanliness.
            clean: false,
            storage,
        };
        Ok((writer, report))
    }

    /// Swap the storage implementation every subsequent I/O goes
    /// through. Chaos drills install a [`gas_chaos::ChaosStorage`] here;
    /// production never calls this and stays on [`RealFs`].
    pub fn set_storage(&mut self, storage: Arc<dyn Storage>) {
        self.storage = storage;
    }

    /// The signature scheme every segment of this index signs under.
    pub fn scheme(&self) -> &SignatureScheme {
        &self.scheme
    }

    /// The banding parameters shared by every segment.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// The committed manifest generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Samples staged but not yet committed.
    pub fn staged_samples(&self) -> usize {
        self.staged.len()
    }

    /// Deletes staged but not yet committed.
    pub fn staged_deletes(&self) -> usize {
        self.staged_deletes.len()
    }

    /// Committed state is ahead of the backing file (a previous persist
    /// failed mid-commit). The next `commit()` — even an otherwise
    /// empty one — retries the flush.
    pub fn needs_persist(&self) -> bool {
        self.dirty
    }

    /// Length of the minimal image of the committed state — exactly what
    /// a [`Self::vacuum`] rewrite writes: the file header, the `SEG`
    /// block of every live segment and the current manifest block. Kept
    /// from cached block lengths, never by framing; 0 without a backing
    /// file.
    pub fn file_live_bytes(&self) -> u64 {
        if self.path.is_none() {
            return 0;
        }
        let segments: u64 = self.blocks.values().map(|block| block.len).sum();
        container::V3_HEADER_LEN as u64 + segments + self.manifest_len
    }

    /// Bytes of the backing file's valid prefix beyond its minimal image:
    /// the dead blocks (compacted-away segments, superseded manifests) a
    /// vacuum would reclaim. 0 without a backing file, and while memory
    /// is ahead of disk after a failed persist ([`Self::needs_persist`]):
    /// that file does not hold the live state, so none of it counts.
    pub fn file_reclaimable_bytes(&self) -> u64 {
        if self.dirty {
            return 0;
        }
        self.valid_len.saturating_sub(self.file_live_bytes())
    }

    /// Committed live samples (tombstoned rows excluded).
    pub fn live_samples(&self) -> usize {
        self.segments.iter().map(|s| s.n_rows()).sum::<usize>() - self.tombstones.len()
    }

    /// First global id not yet assigned.
    pub fn id_bound(&self) -> u32 {
        self.next_id
    }

    fn committed_next_id(&self) -> u32 {
        self.next_id - self.staged.len() as u32 - self.in_flight
    }

    /// Stage one sample; returns its global id (assigned now, stable for
    /// life, never reused). `values` is treated as a set — it is sorted
    /// and deduplicated here, exactly as `SampleCollection::from_sets`
    /// would.
    pub fn add(&mut self, name: impl Into<String>, mut values: Vec<u64>) -> IndexResult<u32> {
        if self.next_id == u32::MAX {
            return Err(IndexError::InvalidConfig(
                "the u32 global id space of this index is exhausted".into(),
            ));
        }
        if !values.windows(2).all(|w| w[0] < w[1]) {
            values.sort_unstable();
            values.dedup();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.staged.push(StagedSample { name: name.into(), values });
        Ok(id)
    }

    /// Stage every sample of a collection; returns the assigned global
    /// id range.
    pub fn add_collection(
        &mut self,
        collection: &SampleCollection,
    ) -> IndexResult<std::ops::Range<u32>> {
        let first = self.next_id;
        if ((u32::MAX - first) as usize) < collection.n() {
            return Err(IndexError::InvalidConfig(format!(
                "{} samples exceed the remaining u32 id space",
                collection.n()
            )));
        }
        for i in 0..collection.n() {
            self.add(collection.names()[i].clone(), collection.sample(i).to_vec())?;
        }
        Ok(first..self.next_id)
    }

    /// Stage the delete of a *committed, live* sample. The delete
    /// becomes a tombstone at the next `commit()`; the row is physically
    /// dropped by the next compaction that touches its segment.
    pub fn delete(&mut self, id: u32) -> IndexResult<()> {
        if id >= self.committed_next_id() {
            let context = if id < self.next_id {
                "still staged; commit it before deleting".to_string()
            } else {
                "never assigned".to_string()
            };
            return Err(IndexError::UnknownSample { id, context });
        }
        if self.tombstones.contains(&id) || self.staged_deletes.contains(&id) {
            return Err(IndexError::UnknownSample { id, context: "already deleted".into() });
        }
        if !self.segments.iter().any(|s| s.local_of(id).is_some()) {
            return Err(IndexError::UnknownSample {
                id,
                context: "already deleted and compacted away".into(),
            });
        }
        self.staged_deletes.insert(id);
        Ok(())
    }

    /// Seal the staged samples into a new immutable segment, turn staged
    /// deletes into tombstones, bump the generation, and (when
    /// file-backed) append the segment and the new manifest to the
    /// container — manifest last, so a crash anywhere mid-commit leaves
    /// the previous generation the newest intact one. With nothing
    /// staged this is a no-op.
    pub fn commit(&mut self) -> IndexResult<CommitSummary> {
        if self.staged.is_empty() && self.staged_deletes.is_empty() {
            if self.dirty {
                // A previous persist failed mid-commit: memory is ahead
                // of disk. Retry the flush so an "empty" commit can heal
                // the divergence once the I/O problem clears.
                self.persist()?;
            }
            return Ok(CommitSummary {
                generation: self.generation,
                sealed_segment: None,
                rows_added: 0,
                deletes_applied: 0,
            });
        }
        let mut sealed = None;
        let mut rows_added = 0usize;
        if !self.staged.is_empty() {
            let base = self.committed_next_id();
            let staged = std::mem::take(&mut self.staged);
            let global_ids: Vec<u32> = (base..self.next_id).collect();
            let names: Vec<String> = staged.iter().map(|s| s.name.clone()).collect();
            let sets: Vec<&[u64]> = staged.iter().map(|s| s.values.as_slice()).collect();
            let segment = Segment::sign_and_build(
                self.next_segment_id,
                self.scheme,
                self.params,
                global_ids,
                names,
                &sets,
            )?;
            self.next_segment_id += 1;
            sealed = Some(segment.id());
            rows_added = segment.n_rows();
            self.segments.push(SharedSegment::new(segment));
        }
        let deletes = std::mem::take(&mut self.staged_deletes);
        self.finish_commit(sealed, rows_added, deletes)
    }

    /// Hand the staged samples and deletes to the commit pipeline: the
    /// batch keeps its already-assigned global ids, is signed off-thread,
    /// and returns through [`Self::commit_signed_rows`]. Until then the
    /// rows are `in_flight`: invisible to readers, excluded from the
    /// committed id high-water mark.
    pub(crate) fn take_staged(&mut self) -> StagedBatch {
        let samples = std::mem::take(&mut self.staged);
        let deletes = std::mem::take(&mut self.staged_deletes);
        let base = self.next_id - samples.len() as u32;
        self.in_flight += samples.len() as u32;
        StagedBatch { base, samples, deletes }
    }

    /// Seal an already-signed batch (the commit pipeline's landing path):
    /// `rows` must carry the contiguous global ids a matching
    /// [`Self::take_staged`] reserved, in order. Applies `deletes` as
    /// tombstones, bumps the generation and flushes — exactly what
    /// `commit()` would have done for the same batch, minus the signing
    /// (already performed off-thread).
    pub(crate) fn commit_signed_rows(
        &mut self,
        rows: Vec<SegmentRow>,
        deletes: BTreeSet<u32>,
    ) -> IndexResult<CommitSummary> {
        if rows.is_empty() && deletes.is_empty() {
            if self.dirty {
                self.persist()?;
            }
            return Ok(CommitSummary {
                generation: self.generation,
                sealed_segment: None,
                rows_added: 0,
                deletes_applied: 0,
            });
        }
        let mut sealed = None;
        let mut rows_added = 0usize;
        if !rows.is_empty() {
            self.in_flight -= rows.len() as u32;
            let segment = Segment::from_rows(self.next_segment_id, self.scheme, self.params, rows)?;
            self.next_segment_id += 1;
            sealed = Some(segment.id());
            rows_added = segment.n_rows();
            self.segments.push(SharedSegment::new(segment));
        }
        self.finish_commit(sealed, rows_added, deletes)
    }

    /// Seal every sample of `collection` as one segment in a single
    /// step — the one-shot-build fast path: signatures are computed
    /// straight off the collection's sample slices, with no staged
    /// copies of the value sets. Semantically identical to
    /// [`Self::add_collection`] followed by [`Self::commit`] (staged
    /// deletes, if any, are applied alongside, exactly as `commit`
    /// would). Errors if samples are currently staged, so interleaved
    /// id assignment stays unambiguous.
    pub fn commit_collection(
        &mut self,
        collection: &SampleCollection,
    ) -> IndexResult<CommitSummary> {
        if !self.staged.is_empty() {
            return Err(IndexError::InvalidConfig(
                "commit staged samples before a whole-collection commit".into(),
            ));
        }
        if ((u32::MAX - self.next_id) as usize) < collection.n() {
            return Err(IndexError::InvalidConfig(format!(
                "{} samples exceed the remaining u32 id space",
                collection.n()
            )));
        }
        let base = self.next_id;
        let signatures = self.scheme.sign_collection(collection);
        let rows: Vec<SegmentRow> = signatures
            .into_iter()
            .enumerate()
            .map(|(i, signature)| SegmentRow {
                global_id: base + i as u32,
                signature,
                set_size: collection.sample(i).len() as u64,
                name: collection.names()[i].clone(),
            })
            .collect();
        let segment = Segment::from_rows(self.next_segment_id, self.scheme, self.params, rows)?;
        self.next_segment_id += 1;
        self.next_id += collection.n() as u32;
        let sealed = Some(segment.id());
        let rows_added = segment.n_rows();
        self.segments.push(SharedSegment::new(segment));
        let deletes = std::mem::take(&mut self.staged_deletes);
        self.finish_commit(sealed, rows_added, deletes)
    }

    /// The shared tail of every commit shape: apply this commit's
    /// deletes, bump the generation, flush. Deletes are passed in (not
    /// read from `staged_deletes`) so a pipelined commit only applies
    /// the deletes that were staged when its batch was taken — deletes
    /// staged later belong to a later commit.
    fn finish_commit(
        &mut self,
        sealed: Option<u64>,
        rows_added: usize,
        mut deletes: BTreeSet<u32>,
    ) -> IndexResult<CommitSummary> {
        let deletes_applied = deletes.len();
        self.tombstones.append(&mut deletes);
        self.generation += 1;
        self.dirty = true;
        self.persist()?;
        Ok(CommitSummary {
            generation: self.generation,
            sealed_segment: sealed,
            rows_added,
            deletes_applied,
        })
    }

    /// An atomic snapshot of the committed state (staged samples and
    /// deletes are invisible until committed). Cheap: segments are
    /// shared, tombstones are copied once into a shared sorted slice.
    pub fn reader(&self) -> IndexReader {
        IndexReader {
            scheme: self.scheme,
            params: self.params,
            generation: self.generation,
            next_id: self.committed_next_id(),
            segments: Arc::new(self.segments.clone()),
            tombstones: Arc::new(self.tombstones.iter().copied().collect()),
        }
    }

    /// Per-segment stats of the committed state (the compactor's input).
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        segment_stats_with(&self.segments, |id| self.tombstones.contains(&id))
    }

    /// Merge every live segment into one and drop all tombstoned rows —
    /// the "compact everything now" convenience (a full [`Compactor`]
    /// applies a size-tiered policy instead).
    pub fn compact_all(&mut self) -> IndexResult<CompactionSummary> {
        let all: Vec<u64> = self.segments.iter().map(|s| s.id()).collect();
        if all.len() < 2 && self.tombstones.is_empty() {
            return Ok(CompactionSummary {
                generation: self.generation,
                segments_before: all.len(),
                segments_after: all.len(),
                ..Default::default()
            });
        }
        self.compact_groups(vec![all])
    }

    /// Merge each group of segment ids into one new segment, dropping
    /// tombstoned rows. Groups must be disjoint; ids must be live. This is
    /// the serving frontend's begin → build → apply merge run inline, so
    /// the committed state changes only in the atomic swap: a merge that
    /// fails leaves every segment, tombstone and block in place.
    pub(crate) fn compact_groups(
        &mut self,
        groups: Vec<Vec<u64>>,
    ) -> IndexResult<CompactionSummary> {
        if !self.staged.is_empty() || !self.staged_deletes.is_empty() {
            return Err(IndexError::InvalidConfig(
                "commit staged samples/deletes before compacting".into(),
            ));
        }
        let Some(task) = self.begin_compaction(groups)? else {
            return Ok(CompactionSummary {
                generation: self.generation,
                segments_before: self.segments.len(),
                segments_after: self.segments.len(),
                ..Default::default()
            });
        };
        let applied = self.apply_compaction(task.build()?)?;
        // Members go stale only when another merge retires them between
        // begin and apply, and the exclusive borrow rules that out.
        Ok(applied.expect("no other merge can run while this one holds the writer"))
    }

    /// Start a compaction that will merge off-thread: validates the
    /// groups against the committed state and captures everything the
    /// merge needs (member segment handles, a tombstone snapshot,
    /// reserved ids for the merged segments) so [`Self::apply_compaction`]
    /// can later swap the result in under the writer lock. Returns
    /// `None` when the plan is empty. Staged samples and deletes may
    /// exist: compaction only touches committed state.
    pub(crate) fn begin_compaction(
        &mut self,
        groups: Vec<Vec<u64>>,
    ) -> IndexResult<Option<CompactionTask>> {
        let groups: Vec<Vec<u64>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
        if groups.is_empty() {
            return Ok(None);
        }
        let mut claimed = BTreeSet::new();
        for id in groups.iter().flatten() {
            if !claimed.insert(*id) {
                return Err(IndexError::InvalidConfig(format!(
                    "segment {id} appears in two compaction groups"
                )));
            }
            if !self.segments.iter().any(|s| s.id() == *id) {
                return Err(IndexError::InvalidConfig(format!(
                    "compaction group references unknown segment {id}"
                )));
            }
        }
        let groups = groups
            .into_iter()
            .map(|group| {
                let members: Vec<SharedSegment> =
                    self.segments.iter().filter(|s| group.contains(&s.id())).cloned().collect();
                let merged_id = self.next_segment_id;
                self.next_segment_id += 1;
                (merged_id, members)
            })
            .collect();
        Ok(Some(CompactionTask {
            scheme: self.scheme,
            params: self.params,
            groups,
            tombstones: self.tombstones.iter().copied().collect(),
        }))
    }

    /// Swap the result of an off-thread merge into the committed state,
    /// atomically under the writer's exclusive borrow: members out,
    /// merged segments in, one generation bump, one persist. Returns
    /// `Ok(None)` — changing nothing — when the task went stale (a
    /// member segment is no longer live, e.g. a concurrent
    /// `compact_all` already merged it). Tombstones that arrived on
    /// member rows *after* the merge snapshot stay in the tombstone set
    /// and keep filtering the (still stored) rows, so late deletes are
    /// never lost.
    pub(crate) fn apply_compaction(
        &mut self,
        built: BuiltCompaction,
    ) -> IndexResult<Option<CompactionSummary>> {
        let live = |id: u64| self.segments.iter().any(|s| s.id() == id);
        if built.merged.iter().any(|m| m.member_ids.iter().any(|&id| !live(id))) {
            return Ok(None);
        }
        let mut summary = CompactionSummary {
            groups_merged: built.merged.len(),
            segments_before: self.segments.len(),
            rows_written: built.rows_written,
            ..Default::default()
        };
        for group in built.merged {
            self.segments.retain(|seg| !group.member_ids.contains(&seg.id()));
            for id in &group.member_ids {
                self.blocks.remove(id);
            }
            // Dropped rows no longer exist anywhere (ids are never
            // reused), so their tombstones have done their job.
            for id in &group.purged {
                if self.tombstones.remove(id) {
                    summary.tombstones_purged += 1;
                }
            }
            if let Some(merged) = group.merged {
                self.segments.push(SharedSegment::new(merged));
            }
        }
        // Keep segments ordered by their first global id so snapshots
        // enumerate rows in corpus order regardless of merge history.
        self.segments.sort_by_key(|s| s.global_ids().first().copied().map_or(u32::MAX, |id| id));
        self.generation += 1;
        self.dirty = true;
        self.persist()?;
        summary.generation = self.generation;
        summary.segments_after = self.segments.len();
        Ok(Some(summary))
    }

    /// Rewrite the backing file keeping only live segments — reclaims
    /// the space of dead blocks (compacted-away segments, superseded
    /// manifests). State and generation are unchanged. A true no-op —
    /// no rewrite, no mtime churn — when there is no backing file or
    /// the file is already a minimal image of the live state.
    ///
    /// An explicit call always rewrites any other file, however little
    /// it reclaims. The serving frontend's maintenance pass instead
    /// vacuums by rule, once [`Self::file_reclaimable_bytes`] reaches half
    /// of [`Self::file_live_bytes`].
    pub fn vacuum(&mut self) -> IndexResult<VacuumReport> {
        if self.path.is_none() || self.clean {
            return Ok(VacuumReport::default());
        }
        let before = self.valid_len;
        self.rewrite_file()?;
        Ok(VacuumReport { bytes_reclaimed: before.saturating_sub(self.valid_len), rewritten: true })
    }

    /// Frame the committed state into `out`: the `SEG` block of every
    /// live segment (when `whole_file`) or of each one not yet on disk,
    /// then the manifest that references them all. A segment framed
    /// before — or verified by the open scan — reuses its cached payload
    /// checksum; any other is hashed once here and cached with its framed
    /// length. The manifest block's length is recorded too.
    fn frame_state(&mut self, out: &mut Vec<u8>, whole_file: bool) {
        let mut refs = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            let cached = self.blocks.get(&seg.id()).copied();
            let crc = match cached {
                Some(block) if block.on_disk && !whole_file => block.crc,
                _ => {
                    let start = out.len();
                    let crc = container::push_segment_block(out, seg, cached.map(|b| b.crc));
                    let len = (out.len() - start) as u64;
                    self.blocks.entry(seg.id()).or_insert(SegmentBlock {
                        crc,
                        len,
                        on_disk: false,
                    });
                    crc
                }
            };
            refs.push(ManifestSegmentRef { id: seg.id(), rows: seg.n_rows() as u32, crc });
        }
        let start = out.len();
        container::push_manifest_block(
            out,
            &ManifestRecord {
                generation: self.generation,
                scheme: self.scheme,
                params: self.params,
                next_id: self.committed_next_id(),
                segments: refs,
                tombstones: self.tombstones.iter().copied().collect(),
            },
        );
        self.manifest_len = (out.len() - start) as u64;
    }

    /// Every live segment's block has just landed in the valid prefix.
    fn mark_all_on_disk(&mut self) {
        for block in self.blocks.values_mut() {
            block.on_disk = true;
        }
    }

    /// Replace the backing file wholesale with a fresh v3 image of the
    /// current state (header, live segments in order, manifest last),
    /// atomically: the bytes land in a temp file in the same directory,
    /// are fsynced, and are renamed over the original — a crash at any
    /// point leaves either the old file or the new one, never a torn mix.
    /// Used by `create_writer_at` and `vacuum`.
    fn rewrite_file(&mut self) -> IndexResult<()> {
        let Some(path) = self.path.clone() else { return Ok(()) };
        // The tracked live image is the exact length of the bytes framed
        // below (only a brand-new file, with no manifest framed yet,
        // regrows once).
        let mut bytes = Vec::with_capacity(self.file_live_bytes() as usize);
        {
            let _encode_span = gas_obs::span("container", "encode");
            bytes.extend_from_slice(&container::v3_header_bytes());
            self.frame_state(&mut bytes, true);
        }
        debug_assert_eq!(
            bytes.len() as u64,
            self.file_live_bytes(),
            "the tracked live-image length went stale"
        );
        {
            let _write_span = gas_obs::span("container", "write");
            self.storage.replace(&path, &bytes)?;
        }
        self.valid_len = bytes.len() as u64;
        self.mark_all_on_disk();
        self.dirty = false;
        self.clean = true;
        Ok(())
    }

    /// Flush the committed state to the backing file: append every live
    /// segment block not yet on disk, then the manifest block — strictly
    /// in that order and fsynced, so every crash point leaves the
    /// previous manifest the last valid one and a returned commit is
    /// durable. Any torn tail from an earlier crash (or an earlier
    /// failed persist) is truncated first; a failed persist leaves
    /// memory ahead of disk, and the next successful one writes the
    /// missing segment blocks before the manifest that references them.
    fn persist(&mut self) -> IndexResult<()> {
        let Some(path) = self.path.clone() else {
            self.dirty = false; // in-memory writers have nothing to flush
            return Ok(());
        };
        let mut tail = Vec::new();
        {
            let _encode_span = gas_obs::span("container", "encode");
            self.frame_state(&mut tail, false);
        }
        {
            let _write_span = gas_obs::span("container", "write");
            self.storage.append_tail(&path, self.valid_len, &tail)?;
        }
        self.valid_len += tail.len() as u64;
        self.mark_all_on_disk();
        self.dirty = false;
        // The append superseded the previous manifest block, which is
        // now dead weight a vacuum could reclaim.
        self.clean = false;
        Ok(())
    }
}

/// A compaction captured by [`IndexWriter::begin_compaction`]: everything
/// the off-thread merge needs, decoupled from the writer so the writer
/// lock is free while bucket tables are rebuilt.
#[derive(Debug)]
pub(crate) struct CompactionTask {
    scheme: SignatureScheme,
    params: LshParams,
    /// (reserved merged-segment id, member segments) per group.
    groups: Vec<(u64, Vec<SharedSegment>)>,
    /// Committed tombstones at capture time, sorted.
    tombstones: Vec<u32>,
}

/// One merged group of a [`BuiltCompaction`].
#[derive(Debug)]
pub(crate) struct BuiltGroup {
    /// The merged segment (`None` when every member row was tombstoned).
    merged: Option<Segment>,
    /// Ids of the member segments the merge replaces.
    member_ids: Vec<u64>,
    /// Tombstones whose rows the merge physically dropped.
    purged: Vec<u32>,
}

/// The result of an off-thread merge, ready for
/// [`IndexWriter::apply_compaction`].
#[derive(Debug)]
pub(crate) struct BuiltCompaction {
    merged: Vec<BuiltGroup>,
    rows_written: usize,
}

impl CompactionTask {
    /// The CPU-heavy half of a compaction — merging live rows and
    /// rebuilding bucket tables — run *without* the writer lock.
    pub(crate) fn build(self) -> IndexResult<BuiltCompaction> {
        let mut out =
            BuiltCompaction { merged: Vec::with_capacity(self.groups.len()), rows_written: 0 };
        for (merged_id, members) in self.groups {
            let member_ids: Vec<u64> = members.iter().map(|s| s.id()).collect();
            let mut rows: Vec<SegmentRow> = Vec::new();
            let mut purged = Vec::new();
            for seg in &members {
                rows.extend(seg.live_rows(|id| self.tombstones.binary_search(&id).is_ok()));
                purged.extend(
                    seg.global_ids()
                        .iter()
                        .copied()
                        .filter(|id| self.tombstones.binary_search(id).is_ok()),
                );
            }
            rows.sort_by_key(|r| r.global_id);
            let merged = if rows.is_empty() {
                None
            } else {
                let seg = Segment::from_rows(merged_id, self.scheme, self.params, rows)?;
                out.rows_written += seg.n_rows();
                Some(seg)
            };
            out.merged.push(BuiltGroup { merged, member_ids, purged });
        }
        Ok(out)
    }
}

/// The immutable half of the lifecycle: an atomic snapshot over sealed
/// segments and tombstones. Clones share everything.
#[derive(Debug, Clone)]
pub struct IndexReader {
    scheme: SignatureScheme,
    params: LshParams,
    generation: u64,
    next_id: u32,
    segments: Arc<Vec<SharedSegment>>,
    tombstones: Arc<Vec<u32>>,
}

impl IndexReader {
    /// Open an index file read-only at its newest intact manifest
    /// generation.
    pub fn open(path: impl AsRef<Path>) -> IndexResult<Self> {
        IndexReader::open_with_report(path).map(|(r, _)| r)
    }

    /// [`Self::open`], also reporting what recovery did.
    pub fn open_with_report(path: impl AsRef<Path>) -> IndexResult<(Self, RecoveryReport)> {
        let (state, report) = load_state(&std::fs::read(path)?)?;
        let reader = IndexReader {
            scheme: state.scheme,
            params: state.params,
            generation: state.generation,
            next_id: state.next_id,
            segments: Arc::new(state.segments),
            tombstones: Arc::new(state.tombstones),
        };
        Ok((reader, report))
    }

    /// The signature scheme shared by all segments.
    pub fn scheme(&self) -> &SignatureScheme {
        &self.scheme
    }

    /// The banding parameters shared by all segments.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// The manifest generation this snapshot observes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// First global id not assigned when the snapshot was taken.
    pub fn id_bound(&self) -> u32 {
        self.next_id
    }

    /// The live segments, ordered by first global id.
    pub fn segments(&self) -> &[SharedSegment] {
        &self.segments
    }

    /// Rows stored across all segments (tombstoned rows included).
    pub fn n_rows(&self) -> usize {
        self.segments.iter().map(|s| s.n_rows()).sum()
    }

    /// Live samples (stored rows minus tombstones).
    pub fn n_live(&self) -> usize {
        self.n_rows() - self.tombstones.len()
    }

    /// The tombstoned global ids, sorted.
    pub fn tombstones(&self) -> &[u32] {
        &self.tombstones
    }

    /// Whether global id `id` is tombstoned.
    pub fn is_deleted(&self, id: u32) -> bool {
        self.tombstones.binary_search(&id).is_ok()
    }

    /// Whether global id `id` is a live sample of this snapshot.
    pub fn is_live(&self, id: u32) -> bool {
        !self.is_deleted(id) && self.locate(id).is_some()
    }

    /// All live global ids, ascending.
    pub fn live_ids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.n_live());
        for seg in self.segments.iter() {
            out.extend(seg.global_ids().iter().copied().filter(|&id| !self.is_deleted(id)));
        }
        out.sort_unstable();
        out
    }

    /// Which segment (index into [`Self::segments`]) and local row hold
    /// global id `id`, tombstoned or not.
    pub fn locate(&self, id: u32) -> Option<(usize, usize)> {
        self.segments
            .iter()
            .enumerate()
            .find_map(|(s, seg)| seg.local_of(id).map(|local| (s, local)))
    }

    /// The signature of live global id `id` (`None` when unknown or
    /// tombstoned).
    pub fn signature_of(&self, id: u32) -> Option<&MinHashSignature> {
        if self.is_deleted(id) {
            return None;
        }
        self.locate(id).map(|(s, local)| self.segments[s].signature(local))
    }

    /// The name of live global id `id`.
    pub fn name_of(&self, id: u32) -> Option<&str> {
        if self.is_deleted(id) {
            return None;
        }
        self.locate(id).map(|(s, local)| self.segments[s].names()[local].as_str())
    }

    /// Check that a query-side scheme matches this index's scheme.
    ///
    /// Signatures are only comparable position by position when they come
    /// from the *same* signer, length and seed; a query signed under any
    /// other scheme would silently score garbage, so mismatches surface
    /// as a typed [`IndexError::SignerMismatch`].
    pub fn check_query_scheme(&self, query_scheme: &SignatureScheme) -> IndexResult<()> {
        if query_scheme != &self.scheme {
            return Err(IndexError::SignerMismatch {
                index_scheme: self.scheme.describe(),
                query_scheme: query_scheme.describe(),
            });
        }
        Ok(())
    }

    /// Per-segment stats under this snapshot's tombstones.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        segment_stats_with(&self.segments, |id| self.is_deleted(id))
    }
}

/// Per-segment row/live counts under one tombstone predicate, plus each
/// segment's probe heat — shared by the writer (compactor input) and
/// reader (reporting, placement) so the two views can never diverge.
fn segment_stats_with<F: Fn(u32) -> bool>(
    segments: &[SharedSegment],
    is_deleted: F,
) -> Vec<SegmentStats> {
    segments
        .iter()
        .map(|seg| {
            let dead = seg.global_ids().iter().filter(|&&id| is_deleted(id)).count();
            let (probes, candidates) = seg.heat();
            SegmentStats {
                segment_id: seg.id(),
                rows: seg.n_rows(),
                live_rows: seg.n_rows() - dead,
                probes,
                candidates,
            }
        })
        .collect()
}

/// The size-tiered compaction policy: segments are grouped into tiers by
/// live-row count (tier `t` holds segments with `factor^t ≤ rows <
/// factor^(t+1)`); any tier filling up with at least `min_merge`
/// segments is merged whole. Small commits therefore roll up
/// geometrically — the write amplification of the classic size-tiered
/// LSM shape — while large, settled segments are left alone, *except*
/// when tombstones pile up: a segment whose dead fraction exceeds
/// `rewrite_dead_pct` is rewritten on its own, so deletes against a
/// lone settled segment are still reclaimed (pure size tiering would
/// carry them forever, since a lone segment never fills its tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Merge a tier once it holds at least this many segments (≥ 2).
    pub min_merge: usize,
    /// Geometric tier width (≥ 2).
    pub tier_factor: usize,
    /// Rewrite a segment on its own once *strictly more* than this
    /// percentage of its stored rows are tombstoned (≤ 100; 100
    /// disables the trigger — a segment is never 100% + 1 dead).
    pub rewrite_dead_pct: u8,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { min_merge: 4, tier_factor: 4, rewrite_dead_pct: 25 }
    }
}

impl CompactionPolicy {
    /// Return a copy with the given geometric tier width (validated by
    /// [`Compactor::new`]).
    pub fn with_tier_factor(mut self, tier_factor: usize) -> Self {
        self.tier_factor = tier_factor;
        self
    }

    /// Return a copy with the given minimum merge width.
    pub fn with_min_merge(mut self, min_merge: usize) -> Self {
        self.min_merge = min_merge;
        self
    }

    /// Return a copy with the given dead-row rewrite trigger percentage.
    pub fn with_rewrite_dead_pct(mut self, pct: u8) -> Self {
        self.rewrite_dead_pct = pct;
        self
    }

    /// The tier of a segment with `live_rows` live rows.
    pub fn tier(&self, live_rows: usize) -> usize {
        let mut tier = 0usize;
        let mut x = live_rows.max(1);
        while x >= self.tier_factor {
            x /= self.tier_factor;
            tier += 1;
        }
        tier
    }
}

/// Merges segments under a [`CompactionPolicy`], dropping tombstoned
/// rows as it goes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Compactor {
    policy: CompactionPolicy,
}

impl Compactor {
    /// A compactor with the given policy.
    pub fn new(policy: CompactionPolicy) -> IndexResult<Self> {
        if policy.min_merge < 2 || policy.tier_factor < 2 {
            return Err(IndexError::InvalidConfig(format!(
                "compaction needs min_merge ≥ 2 and tier_factor ≥ 2 (got {} and {})",
                policy.min_merge, policy.tier_factor
            )));
        }
        if policy.rewrite_dead_pct > 100 {
            return Err(IndexError::InvalidConfig(format!(
                "rewrite_dead_pct is a percentage ≤ 100 (got {})",
                policy.rewrite_dead_pct
            )));
        }
        Ok(Compactor { policy })
    }

    /// The policy in force.
    pub fn policy(&self) -> &CompactionPolicy {
        &self.policy
    }

    /// Which segment groups the policy would merge, given per-segment
    /// stats: one group per over-full tier, in file order, plus a
    /// singleton rewrite for every tombstone-heavy segment (dead
    /// fraction strictly above `rewrite_dead_pct`) not already claimed
    /// by a tier merge.
    pub fn plan(&self, stats: &[SegmentStats]) -> Vec<Vec<u64>> {
        let mut tiers: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
        for s in stats {
            tiers.entry(self.policy.tier(s.live_rows)).or_default().push(s.segment_id);
        }
        let mut groups: Vec<Vec<u64>> =
            tiers.into_values().filter(|group| group.len() >= self.policy.min_merge).collect();
        let claimed: std::collections::BTreeSet<u64> = groups.iter().flatten().copied().collect();
        for s in stats {
            let dead = s.rows - s.live_rows;
            if !claimed.contains(&s.segment_id)
                && dead * 100 > s.rows * usize::from(self.policy.rewrite_dead_pct)
            {
                groups.push(vec![s.segment_id]);
            }
        }
        groups
    }

    /// Run one compaction pass over `writer`'s committed segments.
    pub fn compact(&self, writer: &mut IndexWriter) -> IndexResult<CompactionSummary> {
        let plan = self.plan(&writer.segment_stats());
        writer.compact_groups(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryEngine, QueryOptions};
    use crate::service::IndexOptions;

    fn config() -> IndexConfig {
        IndexConfig::default().with_signature_len(64).with_threshold(0.5)
    }

    fn family(base: u64, private: u64) -> Vec<u64> {
        let mut s: Vec<u64> = (base..base + 300).collect();
        s.extend(private..private + 30);
        s
    }

    fn unique_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gas_lifecycle_{tag}_{}_{n}.gidx", std::process::id()))
    }

    #[test]
    fn staged_work_is_invisible_until_commit() {
        let mut w = IndexOptions::from_config(config()).open_writer().unwrap();
        let id0 = w.add("a", family(0, 50_000)).unwrap();
        assert_eq!(id0, 0);
        assert_eq!(w.staged_samples(), 1);
        assert_eq!(w.reader().n_live(), 0, "staged rows must not be served");
        let summary = w.commit().unwrap();
        assert_eq!(summary.generation, 1);
        assert_eq!(summary.rows_added, 1);
        assert!(summary.sealed_segment.is_some());
        let snapshot = w.reader();
        assert_eq!(snapshot.n_live(), 1);
        // The snapshot is atomic: later commits do not leak into it.
        w.add("b", family(0, 60_000)).unwrap();
        w.commit().unwrap();
        assert_eq!(snapshot.n_live(), 1);
        assert_eq!(w.reader().n_live(), 2);
        assert_eq!(w.reader().segments().len(), 2);
        assert_eq!(w.generation(), 2);
        // An empty commit is a no-op.
        let noop = w.commit().unwrap();
        assert_eq!(noop.generation, 2);
        assert_eq!(noop.sealed_segment, None);
    }

    #[test]
    fn incremental_adds_answer_like_a_fresh_build() {
        // Three commits vs one one-commit build over the same corpus:
        // identical global ids, identical answers.
        let sets: Vec<Vec<u64>> = (0..9u64).map(|i| family((i / 3) * 100_000, 7_000 + i)).collect();
        let collection = gas_core::indicator::SampleCollection::from_sets(sets.clone()).unwrap();
        let fresh = IndexOptions::from_config(config()).build_index(&collection).unwrap();

        let mut w = IndexOptions::from_config(config()).open_writer().unwrap();
        for batch in sets.chunks(4) {
            for s in batch {
                w.add(format!("sample_{}", w.id_bound()), s.clone()).unwrap();
            }
            w.commit().unwrap();
        }
        let reader = w.reader();
        assert_eq!(reader.segments().len(), 3);
        assert_eq!(reader.n_live(), 9);
        let opts = QueryOptions { top_k: 4, ..Default::default() };
        let fresh_engine = QueryEngine::snapshot(fresh.clone());
        let incr_engine = QueryEngine::snapshot(reader.clone());
        for q in &sets {
            assert_eq!(incr_engine.query(q, &opts).unwrap(), fresh_engine.query(q, &opts).unwrap());
        }
        // Signatures are reachable by global id and match the fresh ones.
        for id in 0..9u32 {
            assert_eq!(reader.signature_of(id).unwrap(), fresh.signature_of(id).unwrap());
            assert_eq!(reader.name_of(id).unwrap(), format!("sample_{id}"));
        }
        assert!(reader.signature_of(99).is_none());
    }

    #[test]
    fn commit_collection_equals_staged_adds_plus_commit() {
        let sets: Vec<Vec<u64>> = (0..5u64).map(|i| family(0, 800 * i)).collect();
        let collection = gas_core::indicator::SampleCollection::from_sets(sets.clone())
            .unwrap()
            .with_names((0..5).map(|i| format!("n{i}")).collect())
            .unwrap();
        let mut fast = IndexOptions::from_config(config()).open_writer().unwrap();
        let summary = fast.commit_collection(&collection).unwrap();
        assert_eq!(summary.rows_added, 5);
        let mut staged = IndexOptions::from_config(config()).open_writer().unwrap();
        staged.add_collection(&collection).unwrap();
        staged.commit().unwrap();
        assert_eq!(fast.reader().segments(), staged.reader().segments());
        assert_eq!(fast.id_bound(), staged.id_bound());
        // A second collection appends at the id high-water mark.
        fast.commit_collection(&collection).unwrap();
        assert_eq!(fast.id_bound(), 10);
        assert_eq!(fast.reader().segments()[1].global_ids(), &[5, 6, 7, 8, 9]);
        // Pending staged samples make the fast path ambiguous: rejected.
        fast.add("pending", family(0, 77)).unwrap();
        assert!(fast.commit_collection(&collection).is_err());
    }

    #[test]
    fn deletes_tombstone_then_compaction_drops_rows() {
        let mut w = IndexOptions::from_config(config()).open_writer().unwrap();
        for i in 0..6u64 {
            w.add(format!("s{i}"), family(0, 1_000 * i)).unwrap();
        }
        w.commit().unwrap();
        // Delete validation: unknown, staged, double.
        assert!(matches!(w.delete(99), Err(IndexError::UnknownSample { .. })));
        w.add("staged", family(0, 90_000)).unwrap();
        assert!(matches!(w.delete(6), Err(IndexError::UnknownSample { .. })));
        w.commit().unwrap();
        w.delete(2).unwrap();
        assert!(matches!(w.delete(2), Err(IndexError::UnknownSample { .. })));
        let summary = w.commit().unwrap();
        assert_eq!(summary.deletes_applied, 1);
        assert_eq!(summary.sealed_segment, None, "deletes-only commits seal no segment");

        let reader = w.reader();
        assert_eq!(reader.n_live(), 6);
        assert!(reader.is_deleted(2));
        assert!(!reader.is_live(2));
        assert_eq!(reader.live_ids(), vec![0, 1, 3, 4, 5, 6]);
        // Tombstoned rows never surface as answers.
        let engine = QueryEngine::snapshot(reader);
        let opts = QueryOptions { top_k: 7, ..Default::default() };
        let hits = engine.query(&family(0, 2_000), &opts).unwrap();
        assert!(hits.iter().all(|n| n.id != 2), "{hits:?}");

        // Compaction drops the row and purges the tombstone.
        let summary = w.compact_all().unwrap();
        assert_eq!(summary.segments_before, 2);
        assert_eq!(summary.segments_after, 1);
        assert_eq!(summary.tombstones_purged, 1);
        assert_eq!(summary.rows_written, 6);
        let reader = w.reader();
        assert_eq!(reader.n_rows(), 6, "the dropped row is physically gone");
        assert!(reader.tombstones().is_empty());
        assert_eq!(reader.live_ids(), vec![0, 1, 3, 4, 5, 6]);
        let after = QueryEngine::snapshot(reader).query(&family(0, 2_000), &opts).unwrap();
        assert_eq!(after, hits, "compaction must not change answers");
        // Deleting an id that was compacted away stays an error.
        assert!(matches!(w.delete(2), Err(IndexError::UnknownSample { .. })));
    }

    #[test]
    fn size_tiered_policy_merges_full_tiers_only() {
        let policy = CompactionPolicy { min_merge: 2, tier_factor: 4, ..Default::default() };
        assert_eq!(policy.tier(0), 0);
        assert_eq!(policy.tier(3), 0);
        assert_eq!(policy.tier(4), 1);
        assert_eq!(policy.tier(15), 1);
        assert_eq!(policy.tier(16), 2);
        let compactor = Compactor::new(policy).unwrap();
        let stats = |id: u64, live: usize| SegmentStats {
            segment_id: id,
            rows: live,
            live_rows: live,
            probes: 0,
            candidates: 0,
        };
        // Two tier-0 segments merge; the lone tier-2 segment is left alone.
        let plan = compactor.plan(&[stats(1, 2), stats(2, 3), stats(3, 40)]);
        assert_eq!(plan, vec![vec![1, 2]]);
        assert!(compactor.plan(&[stats(1, 2), stats(2, 40)]).is_empty());
        assert!(Compactor::new(CompactionPolicy {
            min_merge: 1,
            tier_factor: 4,
            ..Default::default()
        })
        .is_err());
        assert!(Compactor::new(CompactionPolicy {
            min_merge: 2,
            tier_factor: 1,
            ..Default::default()
        })
        .is_err());
        assert!(Compactor::new(CompactionPolicy { rewrite_dead_pct: 101, ..Default::default() })
            .is_err());
    }

    #[test]
    fn compaction_policy_builders_set_each_knob() {
        let p = CompactionPolicy::default()
            .with_tier_factor(6)
            .with_min_merge(3)
            .with_rewrite_dead_pct(50);
        assert_eq!((p.tier_factor, p.min_merge, p.rewrite_dead_pct), (6, 3, 50));
        // Builders feed the same validation as literal construction.
        assert!(Compactor::new(CompactionPolicy::default().with_tier_factor(1)).is_err());
        assert!(Compactor::new(p).is_ok());
    }

    #[test]
    fn tombstone_heavy_segments_are_rewritten_even_alone() {
        let compactor = Compactor::new(CompactionPolicy::default()).unwrap();
        let stats = |id: u64, rows: usize, live: usize| SegmentStats {
            segment_id: id,
            rows,
            live_rows: live,
            probes: 0,
            candidates: 0,
        };
        // A lone settled segment with > 25% of its rows tombstoned is
        // rewritten on its own; at exactly 25% it is left alone.
        assert_eq!(compactor.plan(&[stats(7, 100, 74)]), vec![vec![7]]);
        assert!(compactor.plan(&[stats(7, 100, 75)]).is_empty());
        // A segment already claimed by a tier merge is not double-planned.
        let tier0: Vec<SegmentStats> = (1..=4).map(|id| stats(id, 4, 2)).collect(); // 50% dead, but a full tier
        assert_eq!(compactor.plan(&tier0), vec![vec![1, 2, 3, 4]]);
        // The trigger can be disabled outright.
        let off = Compactor::new(CompactionPolicy { rewrite_dead_pct: 100, ..Default::default() })
            .unwrap();
        assert!(off.plan(&[stats(7, 100, 1)]).is_empty());
    }

    #[test]
    fn compactor_rolls_small_segments_up_and_answers_survive() {
        let mut w = IndexOptions::from_config(config()).open_writer().unwrap();
        // Eight one-sample commits: eight tier-0 segments.
        for i in 0..8u64 {
            w.add(format!("s{i}"), family((i / 4) * 100_000, 500 + 40 * i)).unwrap();
            w.commit().unwrap();
        }
        assert_eq!(w.reader().segments().len(), 8);
        let before = QueryEngine::snapshot(w.reader())
            .query(&family(0, 520), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();
        let compactor =
            Compactor::new(CompactionPolicy { min_merge: 4, tier_factor: 4, ..Default::default() })
                .unwrap();
        let summary = compactor.compact(&mut w).unwrap();
        assert_eq!(summary.groups_merged, 1, "all eight singles share tier 0");
        assert_eq!(summary.segments_after, 1);
        let after = QueryEngine::snapshot(w.reader())
            .query(&family(0, 520), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();
        assert_eq!(after, before);
        // Compacting with staged work is refused.
        w.add("pending", family(0, 99_000)).unwrap();
        assert!(compactor.compact(&mut w).is_err());
    }

    #[test]
    fn file_backed_lifecycle_round_trips_and_reports_recovery() {
        let path = unique_path("roundtrip");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        // The freshly created file is already openable (generation 0).
        let (empty, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(empty.generation(), 0);
        assert_eq!(empty.n_live(), 0);
        assert_eq!(report, RecoveryReport { generation: 0, torn_bytes: 0 });

        for i in 0..5u64 {
            w.add(format!("s{i}"), family(0, 700 * (i + 1))).unwrap();
            w.commit().unwrap();
        }
        w.delete(1).unwrap();
        w.commit().unwrap();
        let want = QueryEngine::snapshot(w.reader())
            .query(&family(0, 1_400), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();

        // Reader and writer reopen at the same generation with the same
        // answers; a writer reopening can keep committing.
        let reader = IndexReader::open(&path).unwrap();
        assert_eq!(reader.generation(), 6);
        assert_eq!(reader.n_live(), 4);
        assert!(reader.is_deleted(1));
        let got = QueryEngine::snapshot(reader.clone())
            .query(&family(0, 1_400), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();
        assert_eq!(got, want);

        let mut reopened = IndexWriter::open(&path).unwrap();
        assert_eq!(reopened.generation(), 6);
        assert_eq!(reopened.id_bound(), 5, "global ids resume where they left off");
        reopened.add("s5", family(0, 9_999)).unwrap();
        reopened.commit().unwrap();
        assert_eq!(IndexReader::open(&path).unwrap().n_live(), 5);
        let want = QueryEngine::snapshot(reopened.reader())
            .query(&family(0, 1_400), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();

        // Compaction + vacuum shrink the file without changing answers.
        let len_before = std::fs::metadata(&path).unwrap().len();
        reopened.compact_all().unwrap();
        let reclaimed = reopened.vacuum().unwrap();
        assert!(reclaimed.rewritten, "post-compaction vacuum rewrites the file");
        assert!(reclaimed.bytes_reclaimed > 0, "vacuum reclaims compacted-away blocks");
        let len_after = std::fs::metadata(&path).unwrap().len();
        assert!(len_after < len_before);
        let got = QueryEngine::snapshot(IndexReader::open(&path).unwrap())
            .query(&family(0, 1_400), &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();
        assert_eq!(got, want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_commit_tails_fall_back_to_the_previous_generation() {
        let path = unique_path("torn");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        w.add("a", family(0, 100)).unwrap();
        w.commit().unwrap();
        let good = std::fs::read(&path).unwrap();
        w.add("b", family(0, 200)).unwrap();
        w.commit().unwrap();
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() > good.len());

        // Truncate inside the second commit: generation 1 survives.
        let torn = full[..good.len() + (full.len() - good.len()) / 2].to_vec();
        std::fs::write(&path, &torn).unwrap();
        let (reader, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(reader.generation(), 1);
        assert_eq!(reader.n_live(), 1);
        assert!(report.torn_bytes > 0);

        // A writer reopening over the torn tail truncates it and commits
        // cleanly on top.
        let mut recovered = IndexWriter::open(&path).unwrap();
        assert_eq!(recovered.generation(), 1);
        recovered.add("b2", family(0, 300)).unwrap();
        recovered.commit().unwrap();
        let healed = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(healed.0.generation(), 2);
        assert_eq!(healed.0.n_live(), 2);
        assert_eq!(healed.1.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_persist_is_repaired_by_the_next_successful_commit() {
        // Simulate a transient I/O failure on one commit by swapping the
        // backing file for a directory, then restoring it. The failed
        // commit's segment lives only in memory; every later persist must
        // write it to disk *before* any manifest that references it, or
        // the whole file would scan as corrupt.
        let path = unique_path("persistfail");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        w.add("a", family(0, 100)).unwrap();
        w.commit().unwrap();
        let good = std::fs::read(&path).unwrap();

        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        w.add("b", family(0, 200)).unwrap();
        assert!(matches!(w.commit(), Err(IndexError::Io(_))));
        assert_eq!(w.reader().n_live(), 2, "memory is ahead of disk after the failure");
        assert_eq!(w.file_reclaimable_bytes(), 0, "a file behind memory has nothing to reclaim");

        // Restore the last good bytes; an otherwise-empty commit retries
        // the flush and heals the divergence.
        std::fs::remove_dir(&path).unwrap();
        std::fs::write(&path, &good).unwrap();
        w.commit().unwrap();
        let healed = IndexReader::open(&path).unwrap();
        assert_eq!(healed.n_live(), 2);
        assert_eq!(healed.generation(), w.generation());

        // And ordinary commits keep working on top.
        w.add("c", family(0, 300)).unwrap();
        w.commit().unwrap();
        let reopened = IndexReader::open(&path).unwrap();
        assert_eq!(reopened.n_live(), 3);
        assert_eq!(reopened.segments().len(), 3);
        assert_eq!(reopened.generation(), w.generation());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_tracked_live_image_is_what_a_rewrite_writes() {
        let path = unique_path("liveimage");
        let file_len = || std::fs::metadata(&path).unwrap().len();
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        assert_eq!((w.file_live_bytes(), w.file_reclaimable_bytes()), (file_len(), 0));
        for i in 0..4u64 {
            w.add(format!("s{i}"), family(0, 900 * (i + 1))).unwrap();
            w.commit().unwrap();
            assert!(w.file_reclaimable_bytes() > 0, "each append supersedes a manifest");
            assert_eq!(w.file_live_bytes() + w.file_reclaimable_bytes(), file_len());
        }
        w.delete(2).unwrap();
        w.commit().unwrap();
        w.compact_all().unwrap();
        let (live, dead) = (w.file_live_bytes(), w.file_reclaimable_bytes());
        assert_eq!(live + dead, file_len());

        let report = w.vacuum().unwrap();
        assert_eq!(report, VacuumReport { bytes_reclaimed: dead, rewritten: true });
        assert_eq!((file_len(), w.file_live_bytes(), w.file_reclaimable_bytes()), (live, live, 0));

        // Without a file nothing is live on disk and nothing reclaimable.
        let mut mem = IndexOptions::from_config(config()).open_writer().unwrap();
        mem.add("a", family(0, 100)).unwrap();
        mem.commit().unwrap();
        assert_eq!((mem.file_live_bytes(), mem.file_reclaimable_bytes()), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_block_kinds_allow_read_only_opens_but_refuse_writers() {
        // A checksum-valid block of an unknown kind (a newer build's
        // data) after the last understood manifest: readers fall back to
        // that manifest, but a writer must refuse rather than truncate
        // the foreign bytes away on its next commit.
        let path = unique_path("foreign");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        w.add("a", family(0, 100)).unwrap();
        w.commit().unwrap();
        let generation = w.generation();
        let mut bytes = std::fs::read(&path).unwrap();
        container::frame_block(&mut bytes, *b"FUT\0", None, |out| {
            out.extend_from_slice(b"from the future")
        });
        std::fs::write(&path, &bytes).unwrap();

        let (reader, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(reader.generation(), generation);
        assert_eq!(reader.n_live(), 1);
        assert!(report.torn_bytes > 0, "foreign bytes are reported, not hidden");
        assert!(matches!(IndexWriter::open(&path), Err(IndexError::ForeignBlocks { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn files_with_no_surviving_manifest_are_typed_errors() {
        let path = unique_path("nomanifest");
        // A bare v3 header with no blocks at all.
        std::fs::write(&path, container::v3_header_bytes()).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(IndexError::NoLiveGeneration(_))));
        // Garbage that is not a container at all.
        std::fs::write(&path, b"not a container").unwrap();
        assert!(matches!(IndexReader::open(&path), Err(IndexError::BadMagic)));
        // An unsupported future version.
        let mut future = container::v3_header_bytes();
        future[8..12].copy_from_slice(&9u32.to_le_bytes());
        let crc = container::fnv1a64(&future[..12]);
        future[12..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(IndexReader::open(&path), Err(IndexError::UnsupportedVersion(9))));
        std::fs::remove_file(&path).ok();
    }

    // ---- chaos drills: every fault leaves a servable generation ----

    fn top1(path: &Path, probe: &[u64]) -> Vec<crate::query::Neighbor> {
        QueryEngine::snapshot(IndexReader::open(path).unwrap())
            .query(probe, &QueryOptions { top_k: 3, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn vacuum_faults_leave_the_prior_generation_intact() {
        // The satellite pin: vacuum is write-temp-then-rename, so any
        // injected fault during the rewrite must leave the original file
        // byte-identical and servable, and a clean retry must succeed.
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = unique_path("chaosvac");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        for i in 0..4u64 {
            w.add(format!("s{i}"), family(0, 900 * (i + 1))).unwrap();
            w.commit().unwrap();
        }
        w.delete(2).unwrap();
        w.commit().unwrap();
        w.compact_all().unwrap();
        let probe = family(0, 1_800);
        let want = top1(&path, &probe);
        let good_bytes = std::fs::read(&path).unwrap();

        for (i, kind) in
            [FaultKind::IoError, FaultKind::ShortWrite, FaultKind::TornWrite, FaultKind::FsyncLoss]
                .into_iter()
                .enumerate()
        {
            let chaos = Arc::new(ChaosStorage::over_fs(
                FaultPlan::seeded(100 + i as u64, 0).script(0, kind),
            ));
            w.set_storage(chaos.clone());
            let err = w.vacuum().expect_err("scripted fault must surface");
            assert!(matches!(err, IndexError::Io(_)), "fault {kind:?} surfaced as {err:?}");
            assert!(chaos.ops_seen() > 0, "the fault site was exercised");
            // The original file is untouched: bit-identical, still
            // servable, same answers.
            assert_eq!(std::fs::read(&path).unwrap(), good_bytes, "fault {kind:?} mutated file");
            assert_eq!(top1(&path, &probe), want);
        }

        // With faults cleared the same vacuum completes and answers hold.
        w.set_storage(Arc::new(RealFs));
        let report = w.vacuum().unwrap();
        assert!(report.rewritten);
        assert_eq!(top1(&path, &probe), want);
        std::fs::remove_file(&path).ok();
        // ShortWrite/TornWrite leave a decoy torn temp file behind by
        // design (the crash image); sweep it.
        if let Some(dir) = path.parent() {
            for entry in std::fs::read_dir(dir).unwrap().flatten() {
                if entry.path().extension().is_some_and(|e| e == "chaos-torn") {
                    std::fs::remove_file(entry.path()).ok();
                }
            }
        }
    }

    #[test]
    fn a_chaos_torn_commit_falls_back_and_the_next_commit_heals() {
        // Tentpole requirement: a torn append mid-commit errors, the
        // reopened file serves the newest intact prior generation, and
        // the next successful commit heals the tail.
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = unique_path("chaostorn");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        w.add("a", family(0, 100)).unwrap();
        w.commit().unwrap();
        let probe = family(0, 100);
        let want = top1(&path, &probe);

        let chaos = Arc::new(ChaosStorage::over_fs(
            FaultPlan::seeded(7, 0).script(0, FaultKind::TornWrite),
        ));
        w.set_storage(chaos);
        w.add("b", family(0, 200)).unwrap();
        assert!(matches!(w.commit(), Err(IndexError::Io(_))));

        // The torn tail is recoverable: generation 1 still answers.
        let (reader, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(reader.generation(), 1);
        assert!(report.torn_bytes > 0, "the torn prefix is visible to recovery");
        assert_eq!(top1(&path, &probe), want);

        // Clearing the fault and committing again persists everything
        // the writer holds in memory, torn tail truncated.
        w.set_storage(Arc::new(RealFs));
        w.add("c", family(0, 300)).unwrap();
        w.commit().unwrap();
        let (healed, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(healed.n_live(), 3);
        assert_eq!(healed.generation(), w.generation());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_loss_is_silent_until_reopen_and_vacuum_heals() {
        // FsyncLoss is the lying-sync drill: the commit reports Ok but
        // only a prefix of the tail is durable. The writer's memory is
        // ahead of the disk; reopen falls back to the newest intact
        // generation, and a vacuum (full rewrite) re-syncs disk with
        // memory.
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = unique_path("chaosfsync");
        let mut w = IndexOptions::from_config(config()).create_writer_at(&path).unwrap();
        w.add("a", family(0, 100)).unwrap();
        w.commit().unwrap();
        let probe = family(0, 100);
        let want = top1(&path, &probe);

        let chaos = Arc::new(ChaosStorage::over_fs(
            FaultPlan::seeded(9, 0).script(0, FaultKind::FsyncLoss),
        ));
        w.set_storage(chaos);
        w.add("b", family(0, 200)).unwrap();
        w.commit().expect("a lying fsync reports success");
        assert_eq!(w.generation(), 2, "the writer believes the commit landed");

        // On disk only a prefix landed: reopen falls back to gen 1.
        let (reader, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(reader.generation(), 1);
        assert!(report.torn_bytes > 0);
        assert_eq!(top1(&path, &probe), want);

        // The writer still holds the full state; a vacuum rewrites the
        // file wholesale and disk catches back up.
        w.set_storage(Arc::new(RealFs));
        w.vacuum().unwrap();
        let (healed, report) = IndexReader::open_with_report(&path).unwrap();
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(healed.generation(), 2);
        assert_eq!(healed.n_live(), 2);
        std::fs::remove_file(&path).ok();
    }
}
