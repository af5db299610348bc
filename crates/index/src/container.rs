//! The `gas-index` container: a self-describing, versioned, checksummed,
//! append-only binary file.
//!
//! The vendored serde is a no-op stub, so persistence is hand-rolled
//! little-endian pods. There is one format, the segmented block stream
//! (version [`VERSION_SEGMENTED`]):
//!
//! ```text
//! [0..8)    magic        b"GASIDX01"
//! [8..12)   version      u32 LE (3)
//! [12..20)  header_crc   u64 LE — fnv1a64 of bytes [0..12)
//! [20..)    blocks, each:
//!     [0..4)    kind          b"SEG\0" | b"MAN\0"
//!     [4..8)    reserved      u32 LE (0)
//!     [8..16)   payload_len   u64 LE
//!     [16..24)  payload_crc   u64 LE — fnv1a64 of the payload
//!     [24..32)  header_crc    u64 LE — fnv1a64 of bytes [0..24)
//!     [32..)    payload
//! ```
//!
//! Commits append `SEG* MAN` — immutable segment blocks, then the
//! generation-numbered manifest strictly last. The scanner walks blocks
//! until the first torn or unknown one and keeps the newest manifest
//! seen; a crash, truncation or flip inside the newest commit therefore
//! falls back to the previous generation, and a file with no surviving
//! manifest is rejected with a typed error. `create_writer_at` writes a
//! generation-0 manifest (the empty index) before any commit, so the
//! file is openable from its first flush: a file holding one commit
//! holds two generations, and damage to that commit's blocks falls back
//! to the empty one — a vacuum rewrites the file as that commit alone.
//!
//! Every block is framed in place ([`frame_block`]): the header is
//! reserved, the payload encoded straight behind it, and the checksums
//! filled in last. A sealed segment never changes, so its `SEG` payload
//! checksum is computed once, when the segment is first written (or
//! taken from the scan that verified it on open), and every later
//! rewrite — a vacuum, a writer's first rewrite after an open — reuses
//! it; test builds re-hash to check the cached value against the bytes.
//!
//! The whole file is read once; every checksum is validated before a
//! payload byte is interpreted, and payloads decode through a
//! bounds-checked [`PodReader`] that never sizes an allocation from a
//! count the payload has not backed with bytes — corrupt or forged input
//! produces a typed [`IndexError`], never a panic, a wild slice or an
//! allocation abort. Versions 1 and 2 (a single-index section table) are
//! no longer read: every opener refuses them with
//! [`IndexError::UnsupportedVersion`] and leaves the file untouched.

use gas_core::minhash::{MinHashSignature, SignatureScheme, SignerKind};

use crate::build::BandBuckets;
use crate::error::{IndexError, IndexResult};
use crate::params::LshParams;
use crate::segment::{Segment, SharedSegment};

/// Container magic: "GASIDX" plus the two-digit format generation (the
/// file *family*; incompatible layout revisions bump the version field,
/// not the magic).
pub const MAGIC: [u8; 8] = *b"GASIDX01";

/// The segmented (multi-segment, append-only) container format version:
/// a 20-byte checksummed header followed by a stream of checksummed
/// blocks — immutable segment blocks and generation-numbered manifest
/// blocks, the manifest of each commit written *last*. Readers take the
/// newest manifest whose own bytes and every referenced segment check
/// out; anything after it (a torn commit) is ignored, so a crash or
/// truncation mid-commit falls back to the previous generation.
pub const VERSION_SEGMENTED: u32 = 3;

/// FNV-1a 64-bit checksum (the container's integrity hash: simple,
/// dependency-free and byte-order independent).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Bounds-checked little-endian pod decoding over a borrowed block
/// payload.
#[derive(Debug)]
pub struct PodReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> PodReader<'a> {
    /// Decode `buf`, labelling errors with `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        PodReader { buf, pos: 0, section }
    }

    /// Check that `count` records of at least `min_len` bytes each can
    /// still follow. Decoders ask this *before* sizing an allocation from
    /// a wire count: checksums are not secrets, so a forged count must be
    /// a typed error, not an allocation the payload never backed.
    fn backs(&self, count: usize, min_len: usize, what: &str) -> IndexResult<()> {
        match count.checked_mul(min_len) {
            Some(need) if need <= self.buf.len() - self.pos => Ok(()),
            _ => Err(IndexError::Truncated { context: format!("{}: {what}", self.section) }),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> IndexResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| IndexError::Corrupt {
            context: format!("{}: {what} length overflows", self.section),
        })?;
        if end > self.buf.len() {
            return Err(IndexError::Truncated { context: format!("{}: {what}", self.section) });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one `u32`.
    pub fn u32(&mut self, what: &str) -> IndexResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Read one `u64`.
    pub fn u64(&mut self, what: &str) -> IndexResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Read `count` little-endian `u64`s.
    pub fn u64s(&mut self, count: usize, what: &str) -> IndexResult<Vec<u64>> {
        let bytes = self.take(
            count.checked_mul(8).ok_or_else(|| IndexError::Corrupt {
                context: format!("{}: {what} count overflows", self.section),
            })?,
            what,
        )?;
        Ok(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Read `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: usize, what: &str) -> IndexResult<Vec<u32>> {
        let bytes = self.take(
            count.checked_mul(4).ok_or_else(|| IndexError::Corrupt {
                context: format!("{}: {what} count overflows", self.section),
            })?,
            what,
        )?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Read a length-prefixed UTF-8 string (`u32` length + bytes).
    pub fn string(&mut self, what: &str) -> IndexResult<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| IndexError::Corrupt {
            context: format!("{}: {what} is not UTF-8", self.section),
        })
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> IndexResult<()> {
        if self.pos != self.buf.len() {
            return Err(IndexError::Corrupt {
                context: format!(
                    "{}: {} trailing bytes after decoding",
                    self.section,
                    self.buf.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `values` little-endian. The bytes are sized once and filled
/// through fixed-width chunks, a loop the compiler vectorises; pushing
/// value by value re-checks the capacity every 4 bytes.
fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// [`push_u32s`] for `u64`s.
fn push_u64s(out: &mut Vec<u8>, values: &[u64]) {
    let start = out.len();
    out.resize(start + 8 * values.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Byte length of the v3 file header.
pub(crate) const V3_HEADER_LEN: usize = 20;
/// Byte length of one v3 block header.
pub(crate) const V3_BLOCK_HEADER_LEN: usize = 32;
/// Block kind: one immutable sealed segment.
pub(crate) const BLOCK_SEGMENT: [u8; 4] = *b"SEG\0";
/// Block kind: one manifest generation.
pub(crate) const BLOCK_MANIFEST: [u8; 4] = *b"MAN\0";
/// Layout version of segment payloads.
const SEGMENT_LAYOUT: u32 = 1;
/// Layout version of manifest payloads.
const MANIFEST_LAYOUT: u32 = 1;

/// The 20-byte v3 file header.
pub(crate) fn v3_header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(V3_HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION_SEGMENTED.to_le_bytes());
    let crc = fnv1a64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Frame one checksummed v3 block in place at the end of `out`: reserve
/// the block header, let `encode` append the payload directly behind it,
/// then fill in the payload length, the payload checksum and the header
/// checksum. The payload checksum is `cached_crc` when the caller has it
/// (a sealed segment's payload never changes); otherwise the payload is
/// hashed here, once. Returns the payload checksum written.
pub(crate) fn frame_block(
    out: &mut Vec<u8>,
    kind: [u8; 4],
    cached_crc: Option<u64>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> u64 {
    let start = out.len();
    out.extend_from_slice(&[0; V3_BLOCK_HEADER_LEN]);
    encode(out);
    let payload = &out[start + V3_BLOCK_HEADER_LEN..];
    let payload_len = payload.len() as u64;
    let payload_crc = match cached_crc {
        Some(crc) => {
            debug_assert_eq!(crc, fnv1a64(payload), "a cached payload checksum went stale");
            crc
        }
        None => fnv1a64(payload),
    };
    let header = &mut out[start..start + V3_BLOCK_HEADER_LEN];
    header[0..4].copy_from_slice(&kind);
    header[8..16].copy_from_slice(&payload_len.to_le_bytes());
    header[16..24].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = fnv1a64(&header[..24]);
    header[24..32].copy_from_slice(&header_crc.to_le_bytes());
    payload_crc
}

/// Append `seg` to `out` as one framed `SEG` block and return its
/// payload checksum — `cached_crc` when given (the checksum from the
/// segment's first write, or from the scan that verified it on open).
pub(crate) fn push_segment_block(out: &mut Vec<u8>, seg: &Segment, cached_crc: Option<u64>) -> u64 {
    frame_block(out, BLOCK_SEGMENT, cached_crc, |out| encode_segment(out, seg))
}

/// Append `m` to `out` as one framed `MAN` block.
pub(crate) fn push_manifest_block(out: &mut Vec<u8>, m: &ManifestRecord) {
    frame_block(out, BLOCK_MANIFEST, None, |out| encode_manifest(out, m));
}

fn push_scheme(out: &mut Vec<u8>, scheme: &SignatureScheme, params: &LshParams) {
    push_u32(out, scheme.kind().code());
    push_u32(out, scheme.len() as u32);
    push_u64(out, scheme.seed());
    push_u32(out, params.bands() as u32);
    push_u32(out, params.rows() as u32);
}

fn read_scheme(r: &mut PodReader<'_>) -> IndexResult<(SignatureScheme, LshParams)> {
    let code = r.u32("signer kind code")?;
    let kind = SignerKind::from_code(code).ok_or_else(|| IndexError::Corrupt {
        context: format!("{}: unknown signer kind code {code}", r.section),
    })?;
    let len = r.u32("signature length")? as usize;
    let seed = r.u64("seed")?;
    let bands = r.u32("band count")? as usize;
    let rows = r.u32("rows per band")? as usize;
    let scheme = SignatureScheme::new(len)
        .map_err(|_| IndexError::Corrupt { context: "zero signature length".into() })?
        .with_seed(seed)
        .with_kind(kind);
    let params = LshParams::new(bands, rows)
        .map_err(|_| IndexError::Corrupt { context: "zero bands or rows".into() })?;
    if bands.checked_mul(rows) != Some(len) {
        return Err(IndexError::Corrupt {
            context: format!(
                "{}: {bands} bands of {rows} rows do not tile a {len}-long signature",
                r.section
            ),
        });
    }
    Ok((scheme, params))
}

/// Append a sealed segment's v3 block payload to `out`.
fn encode_segment(out: &mut Vec<u8>, seg: &Segment) {
    push_u32(out, SEGMENT_LAYOUT);
    push_u64(out, seg.id());
    push_scheme(out, seg.scheme(), seg.params());
    let n = seg.n_rows();
    push_u32(out, n as u32);
    push_u32s(out, seg.global_ids());
    push_u64s(out, seg.set_sizes());
    for name in seg.names() {
        push_u32(out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
    }
    for sig in seg.signatures() {
        push_u64s(out, sig.values());
    }
    for band in 0..seg.params().bands() {
        let b = seg.band(band);
        push_u32(out, b.len() as u32);
        push_u32(out, b.ids().len() as u32);
        push_u64s(out, b.keys());
        push_u32s(out, b.offsets());
        push_u32s(out, b.ids());
    }
}

/// Decode a segment block payload (already checksum-validated).
pub(crate) fn decode_segment(payload: &[u8]) -> IndexResult<Segment> {
    let mut r = PodReader::new(payload, "SEG");
    let layout = r.u32("segment layout version")?;
    if layout != SEGMENT_LAYOUT {
        return Err(IndexError::Corrupt {
            context: format!("SEG: unknown layout version {layout}"),
        });
    }
    let id = r.u64("segment id")?;
    let (scheme, params) = read_scheme(&mut r)?;
    let n = r.u32("row count")? as usize;
    let global_ids = r.u32s(n, "global ids")?;
    let set_sizes = r.u64s(n, "set sizes")?;
    // `n` is backed from here on: its ids and set sizes were just taken.
    let mut names = Vec::with_capacity(n);
    for i in 0..n {
        names.push(r.string(&format!("name {i}"))?);
    }
    let mut signatures = Vec::with_capacity(n);
    for i in 0..n {
        signatures
            .push(MinHashSignature::from_values(r.u64s(scheme.len(), &format!("signature {i}"))?));
    }
    // The smallest band table is two counts and one offset.
    r.backs(params.bands(), 12, "band tables")?;
    let mut bands = Vec::with_capacity(params.bands());
    for band in 0..params.bands() {
        let key_count = r.u32(&format!("band {band} key count"))? as usize;
        let id_count = r.u32(&format!("band {band} id count"))? as usize;
        let keys = r.u64s(key_count, &format!("band {band} keys"))?;
        let offsets = r.u32s(key_count + 1, &format!("band {band} offsets"))?;
        let ids = r.u32s(id_count, &format!("band {band} ids"))?;
        bands.push(BandBuckets::from_raw_parts(keys, offsets, ids)?);
    }
    r.finish()?;
    Segment::from_parts(id, scheme, params, global_ids, signatures, set_sizes, names, bands)
}

/// One manifest entry: which segment, how many rows, and the checksum
/// its block payload must carry (cross-checked against the scanned
/// block, so a manifest can never adopt a segment it was not written
/// with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManifestSegmentRef {
    pub id: u64,
    pub rows: u32,
    pub crc: u64,
}

/// One manifest generation: the full committed state of the index at
/// one commit (minus segment payloads, which live in their own blocks).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ManifestRecord {
    pub generation: u64,
    pub scheme: SignatureScheme,
    pub params: LshParams,
    pub next_id: u32,
    pub segments: Vec<ManifestSegmentRef>,
    pub tombstones: Vec<u32>,
}

/// Append a manifest's v3 block payload to `out`.
fn encode_manifest(out: &mut Vec<u8>, m: &ManifestRecord) {
    push_u32(out, MANIFEST_LAYOUT);
    push_u64(out, m.generation);
    push_scheme(out, &m.scheme, &m.params);
    push_u32(out, m.next_id);
    push_u32(out, m.segments.len() as u32);
    for sref in &m.segments {
        push_u64(out, sref.id);
        push_u32(out, sref.rows);
        push_u64(out, sref.crc);
    }
    push_u32(out, m.tombstones.len() as u32);
    for &id in &m.tombstones {
        push_u32(out, id);
    }
}

/// Decode a manifest block payload (already checksum-validated).
pub(crate) fn decode_manifest(payload: &[u8]) -> IndexResult<ManifestRecord> {
    let mut r = PodReader::new(payload, "MAN");
    let layout = r.u32("manifest layout version")?;
    if layout != MANIFEST_LAYOUT {
        return Err(IndexError::Corrupt {
            context: format!("MAN: unknown layout version {layout}"),
        });
    }
    let generation = r.u64("generation")?;
    let (scheme, params) = read_scheme(&mut r)?;
    let next_id = r.u32("next global id")?;
    let segment_count = r.u32("segment count")? as usize;
    r.backs(segment_count, 20, "segment refs")?;
    let mut segments = Vec::with_capacity(segment_count);
    for i in 0..segment_count {
        let id = r.u64(&format!("segment ref {i} id"))?;
        let rows = r.u32(&format!("segment ref {i} rows"))?;
        let crc = r.u64(&format!("segment ref {i} crc"))?;
        segments.push(ManifestSegmentRef { id, rows, crc });
    }
    let tombstone_count = r.u32("tombstone count")? as usize;
    let tombstones = r.u32s(tombstone_count, "tombstones")?;
    if tombstones.windows(2).any(|w| w[0] >= w[1]) {
        return Err(IndexError::Corrupt {
            context: "MAN: tombstones are not strictly increasing".into(),
        });
    }
    r.finish()?;
    Ok(ManifestRecord { generation, scheme, params, next_id, segments, tombstones })
}

/// One intact `SEG` block a scan recovered.
#[derive(Debug)]
pub(crate) struct ScannedSegment {
    pub segment: SharedSegment,
    /// The block's payload checksum.
    pub crc: u64,
    /// The block's framed length: block header plus payload.
    pub len: u64,
}

/// Everything a scan of a v3 file recovers.
#[derive(Debug)]
pub(crate) struct V3Scan {
    /// Every intact segment block, by segment id.
    pub segments: std::collections::BTreeMap<u64, ScannedSegment>,
    /// The newest intact manifest (its referenced segments all resolve).
    pub manifest: Option<ManifestRecord>,
    /// Framed length of that manifest's block (0 when there is none).
    pub manifest_len: u64,
    /// Byte length of the prefix ending at the newest intact manifest —
    /// the resume point for appends; everything after it is a torn tail.
    pub valid_len: usize,
    /// Bytes after `valid_len` (torn commit remains).
    pub torn_bytes: usize,
    /// Highest segment id seen anywhere in the file (referenced or not),
    /// so reopened writers never reuse an id a torn tail burned.
    pub max_segment_id: u64,
    /// The scan stopped at a checksum-*valid* block of a kind this build
    /// does not know — bytes written by a newer build, not a torn
    /// commit. Read-only opens may still fall back to the last
    /// understood manifest; read-write opens must refuse, because the
    /// writer's truncate-then-append protocol would destroy the foreign
    /// blocks.
    pub foreign_kind: Option<[u8; 4]>,
}

/// Walk a v3 file front to back. Checksummed blocks are consumed until
/// the first torn (truncated, flipped or unknown) one; the newest
/// manifest whose referenced segments all resolved wins. Structural
/// garbage *inside* a checksum-valid block is a hard typed error — it
/// cannot come from a crash, only from a writer bug or a forged file.
pub(crate) fn scan_v3(bytes: &[u8]) -> IndexResult<V3Scan> {
    let truncated = || IndexError::Truncated { context: "container header".into() };
    if bytes.len() < 12 {
        return Err(truncated());
    }
    if bytes[0..8] != MAGIC {
        return Err(IndexError::BadMagic);
    }
    // The version is judged before the header checksum: bytes 12..20 of
    // a version-1/2 file are a section count and a length, not a
    // checksum, and "too old" must not read as a checksum mismatch.
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION_SEGMENTED {
        return Err(IndexError::UnsupportedVersion(version));
    }
    if bytes.len() < V3_HEADER_LEN {
        return Err(truncated());
    }
    let stored = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if fnv1a64(&bytes[..12]) != stored {
        return Err(IndexError::ChecksumMismatch { section: "v3 header".into() });
    }
    let mut scan = V3Scan {
        segments: Default::default(),
        manifest: None,
        manifest_len: 0,
        valid_len: V3_HEADER_LEN,
        torn_bytes: 0,
        max_segment_id: 0,
        foreign_kind: None,
    };
    let mut pos = V3_HEADER_LEN;
    while pos + V3_BLOCK_HEADER_LEN <= bytes.len() {
        let header = &bytes[pos..pos + V3_BLOCK_HEADER_LEN];
        let stored = u64::from_le_bytes(header[24..32].try_into().unwrap());
        if fnv1a64(&header[..24]) != stored {
            break; // torn or flipped block header
        }
        let kind: [u8; 4] = header[0..4].try_into().unwrap();
        let payload_len = u64::from_le_bytes(header[8..16].try_into().unwrap()) as usize;
        let Some(end) =
            pos.checked_add(V3_BLOCK_HEADER_LEN).and_then(|p| p.checked_add(payload_len))
        else {
            break;
        };
        if end > bytes.len() {
            break; // truncated payload
        }
        let payload = &bytes[pos + V3_BLOCK_HEADER_LEN..end];
        let payload_crc = u64::from_le_bytes(header[16..24].try_into().unwrap());
        if fnv1a64(payload) != payload_crc {
            break; // flipped payload
        }
        let framed_len = (end - pos) as u64;
        match kind {
            BLOCK_SEGMENT => {
                let segment = decode_segment(payload)?;
                scan.max_segment_id = scan.max_segment_id.max(segment.id());
                let scanned = ScannedSegment {
                    segment: SharedSegment::new(segment),
                    crc: payload_crc,
                    len: framed_len,
                };
                if scan.segments.insert(scanned.segment.id(), scanned).is_some() {
                    return Err(IndexError::Corrupt {
                        context: "duplicate segment id in container".into(),
                    });
                }
            }
            BLOCK_MANIFEST => {
                let manifest = decode_manifest(payload)?;
                for sref in &manifest.segments {
                    match scan.segments.get(&sref.id) {
                        Some(s)
                            if s.crc == sref.crc && s.segment.n_rows() == sref.rows as usize => {}
                        _ => {
                            return Err(IndexError::Corrupt {
                                context: format!(
                                    "manifest generation {} references segment {} \
                                     that is absent or does not match",
                                    manifest.generation, sref.id
                                ),
                            });
                        }
                    }
                }
                scan.manifest = Some(manifest);
                scan.manifest_len = framed_len;
                scan.valid_len = end;
            }
            _ => {
                // A checksum-valid block of a kind this build does not
                // know: bytes from a newer build, not corruption. Stop
                // scanning (we cannot interpret what follows) but record
                // the fact so writers refuse to truncate it away.
                scan.foreign_kind = Some(kind);
                break;
            }
        }
        pos = end;
    }
    scan.torn_bytes = bytes.len() - scan.valid_len;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexConfig;
    use crate::service::IndexOptions;
    use gas_core::indicator::SampleCollection;

    fn small_segment(signer: SignerKind) -> SharedSegment {
        let collection = SampleCollection::from_sorted_sets(vec![
            (0..300u64).collect(),
            (100..400u64).collect(),
            (10_000..10_200u64).collect(),
            vec![],
        ])
        .unwrap()
        .with_names(vec!["a".into(), "b".into(), "naïve-✓".into(), "empty".into()])
        .unwrap();
        let config = IndexConfig::default().with_signature_len(32).with_signer(signer);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        index.segments()[0].clone()
    }

    /// The payload of `seg`'s framed block.
    fn segment_payload(seg: &Segment) -> Vec<u8> {
        let mut block = Vec::new();
        push_segment_block(&mut block, seg, None);
        block.split_off(V3_BLOCK_HEADER_LEN)
    }

    #[test]
    fn segment_payload_round_trips_for_both_signers() {
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            let segment = small_segment(signer);
            let back = decode_segment(&segment_payload(&segment)).unwrap();
            assert_eq!(back, *segment);
            assert_eq!(back.scheme().kind(), signer, "the payload records the signer");
            assert_eq!(back.names()[2], "naïve-✓");
        }
    }

    #[test]
    fn framed_blocks_scan_back_and_a_cached_checksum_frames_identical_bytes() {
        let segment = small_segment(SignerKind::KMins);
        let mut file = v3_header_bytes();
        let crc = push_segment_block(&mut file, &segment, None);
        let manifest = ManifestRecord {
            generation: 1,
            scheme: *segment.scheme(),
            params: *segment.params(),
            next_id: segment.n_rows() as u32,
            segments: vec![ManifestSegmentRef {
                id: segment.id(),
                rows: segment.n_rows() as u32,
                crc,
            }],
            tombstones: vec![2],
        };
        push_manifest_block(&mut file, &manifest);
        let scan = scan_v3(&file).unwrap();
        assert_eq!(scan.manifest, Some(manifest));
        assert_eq!(scan.valid_len, file.len());
        assert_eq!(scan.segments[&segment.id()].crc, crc);
        // The recorded framed lengths tile the file behind the header.
        let manifest_start = file.len() as u64 - scan.manifest_len;
        assert_eq!(V3_HEADER_LEN as u64 + scan.segments[&segment.id()].len, manifest_start);

        // Reusing the checksum re-frames the very same bytes, appended
        // behind whatever the buffer already holds.
        let mut again = b"prefix".to_vec();
        assert_eq!(push_segment_block(&mut again, &segment, Some(crc)), crc);
        let block_len = again.len() - 6;
        assert_eq!(again[6..], file[V3_HEADER_LEN..V3_HEADER_LEN + block_len]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn a_stale_cached_checksum_is_caught_in_test_builds() {
        let segment = small_segment(SignerKind::Oph);
        push_segment_block(&mut Vec::new(), &segment, Some(0xDEAD));
    }

    #[test]
    fn structural_garbage_inside_a_payload_is_typed() {
        let good = segment_payload(&small_segment(SignerKind::Oph));
        // Payload offsets: layout u32 | id u64 | kind u32 | len u32 |
        // seed u64 | bands u32 | rows u32 | ...
        let patched = |at: usize, v: u32| {
            let mut bad = good.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            decode_segment(&bad)
        };
        assert!(matches!(patched(0, 9), Err(IndexError::Corrupt { .. })), "layout version");
        assert!(matches!(patched(12, 99), Err(IndexError::Corrupt { .. })), "signer kind code");
        assert!(matches!(patched(16, 0), Err(IndexError::Corrupt { .. })), "zero length");
        assert!(matches!(patched(28, 0), Err(IndexError::Corrupt { .. })), "zero bands");
        // A banding that does not tile the signature — including one
        // whose product overflows — never reaches the table decoder.
        assert!(matches!(patched(16, 33), Err(IndexError::Corrupt { .. })), "bands·rows ≠ len");
        let mut overflow = good.clone();
        overflow[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        overflow[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_segment(&overflow), Err(IndexError::Corrupt { .. })));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(decode_segment(&trailing), Err(IndexError::Corrupt { .. })));
    }

    #[test]
    fn scan_judges_magic_then_version_then_header_checksum() {
        let header = v3_header_bytes();
        assert!(scan_v3(&header).unwrap().manifest.is_none());
        assert!(matches!(scan_v3(&header[..11]), Err(IndexError::Truncated { .. })));
        assert!(matches!(scan_v3(&header[..19]), Err(IndexError::Truncated { .. })));

        let mut bad_magic = header.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(scan_v3(&bad_magic), Err(IndexError::BadMagic)));

        // The version is not covered by a recomputed checksum here: it is
        // refused first, so old and future files fail with the right error.
        for version in [1u32, 2, 99] {
            let mut other = header.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(scan_v3(&other), Err(IndexError::UnsupportedVersion(v)) if v == version)
            );
        }

        let mut bad_crc = header.clone();
        bad_crc[12] ^= 0x01;
        assert!(matches!(
            scan_v3(&bad_crc),
            Err(IndexError::ChecksumMismatch { section }) if section == "v3 header"
        ));
    }

    #[test]
    fn pod_reader_bounds_and_finish() {
        let buf = 7u64.to_le_bytes();
        let mut r = PodReader::new(&buf, "TEST");
        assert_eq!(r.u64("value").unwrap(), 7);
        assert!(matches!(r.u32("past end"), Err(IndexError::Truncated { .. })));

        let mut r = PodReader::new(&buf, "TEST");
        assert_eq!(r.u32("low half").unwrap(), 7);
        assert!(matches!(r.finish(), Err(IndexError::Corrupt { .. })));

        let mut r = PodReader::new(&buf, "TEST");
        assert!(matches!(r.u64s(2, "too many"), Err(IndexError::Truncated { .. })));

        // Counts are checked against the bytes left, overflow included.
        let r = PodReader::new(&buf, "TEST");
        assert!(r.backs(2, 4, "fits").is_ok());
        assert!(matches!(r.backs(3, 4, "too many"), Err(IndexError::Truncated { .. })));
        assert!(matches!(r.backs(usize::MAX, 2, "overflow"), Err(IndexError::Truncated { .. })));
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the checksum so the on-disk format cannot drift silently.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
