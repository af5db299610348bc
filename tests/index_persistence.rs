//! Persistence tests of the `gas-index` container, against one-commit
//! files: property-based round-trips (build → file → open → equal
//! segments and identical top-k answers) and typed rejection of
//! corrupted, truncated, forged and too-old files.

use std::path::{Path, PathBuf};

use genomeatscale::index::container::{fnv1a64, MAGIC};
use genomeatscale::index::IndexError;
use genomeatscale::prelude::*;
use proptest::prelude::*;

fn unique_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gas_idx_{tag}_{}_{n}.gidx", std::process::id()))
}

/// One-shot persistence: `collection` committed once into a fresh
/// container file at `path`.
fn persist(options: &IndexOptions, collection: &SampleCollection, path: &Path) -> IndexWriter {
    let mut writer = options.create_writer_at(path).unwrap();
    writer.commit_collection(collection).unwrap();
    writer
}

/// The bytes of a file holding *only* that one commit. `create_writer_at`
/// leaves a generation-0 manifest a damaged tail would fall back to;
/// vacuum rewrites the file as header + segment + manifest, so any damage
/// has no older generation to hide behind.
fn one_generation_bytes(signature_len: usize, sets: Vec<Vec<u64>>, path: &Path) -> Vec<u8> {
    let collection = SampleCollection::from_sorted_sets(sets).unwrap();
    let options =
        IndexOptions::from_config(IndexConfig::default().with_signature_len(signature_len));
    persist(&options, &collection, path).vacuum().unwrap();
    std::fs::read(path).unwrap()
}

/// Overwrite `path` with `bytes` and open it read-only.
fn open_bytes(path: &Path, bytes: &[u8]) -> Result<IndexReader, IndexError> {
    std::fs::write(path, bytes).unwrap();
    IndexReader::open(path)
}

/// A hand-framed file header: magic, version, checksum of both.
fn header(version: u32) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend(version.to_le_bytes());
    let crc = fnv1a64(&out);
    out.extend(crc.to_le_bytes());
    out
}

/// A hand-framed, checksum-valid block around `payload`.
fn block(kind: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = kind.to_vec();
    out.extend(0u32.to_le_bytes());
    out.extend((payload.len() as u64).to_le_bytes());
    out.extend(fnv1a64(payload).to_le_bytes());
    let crc = fnv1a64(&out);
    out.extend(crc.to_le_bytes());
    out.extend(payload);
    out
}

/// Strategy: a small collection of samples over a bounded universe,
/// including possibly-empty sets.
fn collections() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(
        prop::collection::btree_set(0u64..2_048, 0..80)
            .prop_map(|s| s.into_iter().collect::<Vec<u64>>()),
        2..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn container_round_trip_preserves_index_and_answers(
        samples in collections(),
        signature_len in 8usize..65,
        oph in any::<bool>(),
    ) {
        let collection = SampleCollection::from_sorted_sets(samples).unwrap();
        let config = IndexConfig::default()
            .with_signature_len(signature_len)
            .with_threshold(0.5)
            .with_signer(if oph { SignerKind::Oph } else { SignerKind::KMins });
        let options = IndexOptions::from_config(config);
        let index = options.build_index(&collection).unwrap();

        let path = unique_path("roundtrip");
        persist(&options, &collection, &path);
        let loaded = IndexReader::open(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The loaded index is structurally identical (segment id
        // included) ...
        prop_assert_eq!(loaded.segments(), index.segments());
        prop_assert_eq!(loaded.scheme(), index.scheme());
        prop_assert_eq!(
            (loaded.generation(), loaded.id_bound(), loaded.tombstones()),
            (index.generation(), index.id_bound(), index.tombstones())
        );

        // ... and answers every query identically (every sample plus a
        // few perturbations, with and without exact re-ranking).
        let mut queries: Vec<Vec<u64>> =
            (0..collection.n()).map(|i| collection.sample(i).to_vec()).collect();
        queries.push(Vec::new());
        queries.push(collection.sample(0).iter().copied().step_by(2).collect());
        for rerank in [false, true] {
            let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
            let before = QueryEngine::snapshot_with_collection(index.clone(), &collection)
                .query_batch(&queries, &opts)
                .unwrap();
            let after = QueryEngine::snapshot_with_collection(loaded.clone(), &collection)
                .query_batch(&queries, &opts)
                .unwrap();
            prop_assert_eq!(before, after, "rerank={}", rerank);
        }
    }

    #[test]
    fn flipping_any_single_payload_byte_is_detected(
        byte in 0usize..10_000,
    ) {
        // A canonical small index; flip one byte somewhere in the file
        // (position taken modulo the length) and the reader must reject
        // it — never misparse silently into a *different* valid index.
        // Flips that land in ignored padding do not exist in this format:
        // every byte is covered by a checksum, and with one generation in
        // the file there is nothing older to fall back to.
        let path = unique_path("flip");
        let mut bytes =
            one_generation_bytes(16, vec![(0..40u64).collect(), (20..60u64).collect()], &path);
        let pos = byte % bytes.len();
        bytes[pos] ^= 0x5A;
        let opened = open_bytes(&path, &bytes);
        std::fs::remove_file(&path).ok();
        prop_assert!(opened.is_err(), "flip at byte {} went undetected", pos);
    }
}

#[test]
fn corrupted_header_is_rejected() {
    let path = unique_path("header");
    let bytes = one_generation_bytes(32, vec![(0..50u64).collect(), (25..75u64).collect()], &path);
    assert_eq!(bytes[..20], header(3)[..], "the hand-framed header is the real one");

    // Wrong magic.
    let mut bad = bytes.clone();
    bad[..8].copy_from_slice(b"NOTGASIX");
    assert!(matches!(open_bytes(&path, &bad), Err(IndexError::BadMagic)));

    // Unsupported version, with a header checksum that matches it.
    let mut bad = bytes.clone();
    bad[..20].copy_from_slice(&header(7));
    assert!(matches!(open_bytes(&path, &bad), Err(IndexError::UnsupportedVersion(7))));

    // Corrupted header checksum.
    let mut bad = bytes.clone();
    bad[15] ^= 0xFF;
    assert!(matches!(open_bytes(&path, &bad), Err(IndexError::ChecksumMismatch { .. })));
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_files_are_rejected_at_every_length() {
    let path = unique_path("truncated");
    let bytes = one_generation_bytes(8, vec![(0..30u64).collect(), (10..40u64).collect()], &path);
    assert!(open_bytes(&path, &bytes).is_ok());
    // Every proper prefix must fail loudly — a truncated copy is the
    // classic failure of interrupted uploads.
    for keep in 0..bytes.len() {
        assert!(open_bytes(&path, &bytes[..keep]).is_err(), "prefix of {keep} bytes accepted");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_one_and_two_files_are_refused_and_left_untouched() {
    // The 24-byte header of the retired single-index section-table
    // format: magic, version, section count, total length. Bytes 12..20
    // are not a checksum there, so the version must be judged first.
    let path = unique_path("too_old");
    for version in [1u32, 2] {
        let mut old = MAGIC.to_vec();
        old.extend(version.to_le_bytes());
        old.extend(0u32.to_le_bytes());
        old.extend(32u64.to_le_bytes());
        assert_eq!(old.len(), 24);

        let refused = open_bytes(&path, &old).unwrap_err();
        assert!(matches!(refused, IndexError::UnsupportedVersion(v) if v == version));
        assert!(refused.to_string().contains("predates the segmented format"), "{refused}");
        assert!(matches!(
            IndexWriter::open(&path),
            Err(IndexError::UnsupportedVersion(v)) if v == version
        ));
        assert!(matches!(
            IndexOptions::new().serve_open(&path),
            Err(IndexError::UnsupportedVersion(v)) if v == version
        ));
        assert_eq!(std::fs::read(&path).unwrap(), old, "a refused open must not touch the file");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn forged_counts_are_typed_errors_not_allocation_aborts() {
    // FNV-1a is not a secret: a checksum-valid block with a forged count
    // is trivial to build, and must come back as an error — not as an
    // attempt to allocate u32::MAX records the payload never backed.
    let path = unique_path("forged");
    let scheme = |len: u32, bands: u32, rows: u32| {
        let mut out = 0u32.to_le_bytes().to_vec(); // signer kind: k-mins
        out.extend(len.to_le_bytes());
        out.extend(7u64.to_le_bytes()); // seed
        out.extend(bands.to_le_bytes());
        out.extend(rows.to_le_bytes());
        out
    };

    // A manifest announcing u32::MAX segment refs and holding none.
    let mut manifest = 1u32.to_le_bytes().to_vec(); // layout
    manifest.extend(1u64.to_le_bytes()); // generation
    manifest.extend(scheme(8, 4, 2));
    manifest.extend(0u32.to_le_bytes()); // next global id
    manifest.extend(u32::MAX.to_le_bytes()); // segment count
    let mut file = header(3);
    file.extend(block(b"MAN\0", &manifest));
    assert!(matches!(open_bytes(&path, &file), Err(IndexError::Truncated { .. })));

    // An empty segment announcing u32::MAX band tables and holding none.
    let mut segment = 1u32.to_le_bytes().to_vec(); // layout
    segment.extend(1u64.to_le_bytes()); // segment id
    segment.extend(scheme(u32::MAX, u32::MAX, 1));
    segment.extend(0u32.to_le_bytes()); // row count
    let mut file = header(3);
    file.extend(block(b"SEG\0", &segment));
    assert!(matches!(open_bytes(&path, &file), Err(IndexError::Truncated { .. })));

    // A banding that does not tile the signature is structural garbage.
    let mut segment = 1u32.to_le_bytes().to_vec();
    segment.extend(1u64.to_le_bytes());
    segment.extend(scheme(8, u32::MAX, 1));
    segment.extend(0u32.to_le_bytes());
    let mut file = header(3);
    file.extend(block(b"SEG\0", &segment));
    assert!(matches!(open_bytes(&path, &file), Err(IndexError::Corrupt { .. })));
    std::fs::remove_file(&path).ok();
}

/// One band table as its buckets, `(key, ids)` in key order.
type Buckets = Vec<(u64, Vec<u32>)>;

/// The band tables of a v3 `SEG` payload and the payload bytes in front
/// of them.
fn split_band_tables(payload: &[u8]) -> (Vec<u8>, Vec<Buckets>) {
    fn take<'a>(rest: &mut &'a [u8], len: usize) -> &'a [u8] {
        let (head, tail) = rest.split_at(len);
        *rest = tail;
        head
    }
    let u32_at = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().unwrap()) as usize;
    let mut rest = payload;
    take(&mut rest, 16); // layout, segment id, signer kind
    let len = u32_at(take(&mut rest, 4));
    take(&mut rest, 8); // seed
    let bands = u32_at(take(&mut rest, 4));
    take(&mut rest, 4); // rows per band
    let n = u32_at(take(&mut rest, 4));
    take(&mut rest, 4 * n + 8 * n); // global ids, set sizes
    for _ in 0..n {
        let name_len = u32_at(take(&mut rest, 4));
        take(&mut rest, name_len);
    }
    take(&mut rest, 8 * len * n); // signatures
    let head = payload[..payload.len() - rest.len()].to_vec();
    let mut tables = Vec::with_capacity(bands);
    for _ in 0..bands {
        let key_count = u32_at(take(&mut rest, 4));
        let id_count = u32_at(take(&mut rest, 4));
        let keys = take(&mut rest, 8 * key_count)
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()));
        let offsets: Vec<usize> =
            take(&mut rest, 4 * (key_count + 1)).chunks(4).map(u32_at).collect();
        let ids: Vec<u32> =
            take(&mut rest, 4 * id_count).chunks(4).map(|c| u32_at(c) as u32).collect();
        tables.push(
            keys.zip(offsets.windows(2)).map(|(key, w)| (key, ids[w[0]..w[1]].to_vec())).collect(),
        );
    }
    assert!(rest.is_empty(), "band tables end the payload");
    (head, tables)
}

/// A `SEG` payload re-encoded from its head and (possibly mutated) band
/// tables.
fn join_band_tables(head: &[u8], tables: &[Buckets]) -> Vec<u8> {
    let mut out = head.to_vec();
    for buckets in tables {
        let ids: Vec<u32> = buckets.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
        out.extend((buckets.len() as u32).to_le_bytes());
        out.extend((ids.len() as u32).to_le_bytes());
        out.extend(buckets.iter().flat_map(|(key, _)| key.to_le_bytes()));
        let mut end = 0u32;
        out.extend(end.to_le_bytes());
        for (_, members) in buckets {
            end += members.len() as u32;
            out.extend(end.to_le_bytes());
        }
        out.extend(ids.iter().flat_map(|id| id.to_le_bytes()));
    }
    out
}

#[test]
fn checksum_valid_files_with_malformed_buckets_are_corrupt() {
    // FNV-1a is not a secret: a file whose every checksum is valid but
    // whose bucket tables are structurally wrong must open as a typed
    // `Corrupt` — never a panic, never an index that answers wrongly.
    // Samples 0 and 1 are identical, so every band holds a two-row bucket.
    let path = unique_path("malformed_buckets");
    let set = |lo: u64| (lo..lo + 60).collect::<Vec<u64>>();
    let bytes =
        one_generation_bytes(32, vec![set(0), set(0), set(500), set(900), set(1_300)], &path);
    // header | SEG block | MAN block: re-frame both, with the checksum in
    // the manifest's one segment ref (just before its tombstone count)
    // matching the rewritten payload.
    let seg_len = u64::from_le_bytes(bytes[28..36].try_into().unwrap()) as usize;
    let seg_end = 20 + 32 + seg_len;
    let (head, tables) = split_band_tables(&bytes[52..seg_end]);
    let mut manifest = bytes[seg_end + 32..].to_vec();
    let mut file_with = |tables: &[Buckets]| {
        let payload = join_band_tables(&head, tables);
        let crc_at = manifest.len() - 4 - 8;
        manifest[crc_at..crc_at + 8].copy_from_slice(&fnv1a64(&payload).to_le_bytes());
        let mut file = header(3);
        file.extend(block(b"SEG\0", &payload));
        file.extend(block(b"MAN\0", &manifest));
        file
    };
    assert_eq!(file_with(&tables), bytes, "the re-framing helpers reproduce the file");

    let band = &tables[0];
    let pair = band.iter().position(|(_, ids)| ids.len() >= 2).unwrap();
    let other = (pair + 1) % band.len();
    let row = band[pair].1[0];
    let mutate = |edit: &dyn Fn(&mut Buckets)| {
        let mut tables = tables.clone();
        edit(&mut tables[0]);
        tables
    };
    let cases = [
        ("ids swapped inside a bucket", mutate(&|band| band[pair].1.swap(0, 1))),
        (
            "a row moved into a second bucket of the band",
            mutate(&|band| {
                band[other].1.push(row);
                band[other].1.sort_unstable();
            }),
        ),
        ("a row dropped from the band", mutate(&|band| band[pair].1.retain(|&id| id != row))),
        (
            "an empty bucket",
            mutate(&|band| {
                let key = band[pair].0 + 1;
                assert!(band.get(pair + 1).is_none_or(|(next, _)| key < *next));
                band.insert(pair + 1, (key, Vec::new()));
            }),
        ),
    ];
    for (case, tables) in cases {
        let opened = open_bytes(&path, &file_with(&tables));
        assert!(matches!(opened, Err(IndexError::Corrupt { .. })), "{case}: {opened:?}");
    }
    std::fs::remove_file(&path).ok();
}

fn file_crc(path: &Path) -> u64 {
    fnv1a64(&std::fs::read(path).unwrap())
}

/// A fixed file-backed script: three commits, deletes, `compact_all`,
/// one more commit, `vacuum`. Returns the file's checksum after every
/// step (creation included) and the file bytes just before and just
/// after the final vacuum.
fn scripted_file(signer: SignerKind, path: &Path) -> (Vec<u64>, Vec<u8>, Vec<u8>) {
    let config =
        IndexConfig::default().with_signature_len(32).with_threshold(0.5).with_signer(signer);
    let mut writer = IndexOptions::from_config(config).create_writer_at(path).unwrap();
    let sample = |i: u64| -> Vec<u64> {
        let base = (i % 3) * 10_000 + i * 7;
        (base..base + 200).collect()
    };
    let mut crcs = vec![file_crc(path)];
    for commit in 0..3u64 {
        for i in commit * 4..commit * 4 + 4 {
            writer.add(format!("s{i}-naïve"), sample(i)).unwrap();
        }
        writer.commit().unwrap();
        crcs.push(file_crc(path));
    }
    for id in [1, 5, 6, 10] {
        writer.delete(id).unwrap();
    }
    writer.commit().unwrap();
    crcs.push(file_crc(path));
    writer.compact_all().unwrap();
    crcs.push(file_crc(path));
    for i in 12..15u64 {
        writer.add(format!("s{i}"), sample(i)).unwrap();
    }
    writer.commit().unwrap();
    crcs.push(file_crc(path));
    let before_vacuum = std::fs::read(path).unwrap();
    assert!(writer.vacuum().unwrap().rewritten);
    crcs.push(file_crc(path));
    (crcs, before_vacuum, std::fs::read(path).unwrap())
}

#[test]
fn the_write_path_is_byte_identical_to_the_pinned_format() {
    // Every block a writer frames — fresh commits, compaction outputs,
    // manifests, a vacuum's full rewrite — is pinned to the bytes this
    // format has always written, step by step, for both signers.
    let pinned: [(SignerKind, [u64; 8]); 2] = [
        (
            SignerKind::KMins,
            [
                0xAC2C_E97F_B43D_EADC,
                0xCF6D_54EE_D003_ED85,
                0x4891_269E_AF3D_9FB2,
                0x00CB_D5AF_3459_B4EB,
                0xDE01_837A_7066_BB0C,
                0x42D0_1C50_5EA5_6E0A,
                0x5DB8_A9D9_BF87_D2A1,
                0xD209_E77B_A9A8_BD3C,
            ],
        ),
        (
            SignerKind::Oph,
            [
                0x3319_E09B_98DB_FBC2,
                0x5EF8_8322_0B83_95D9,
                0x5193_5715_B831_AB11,
                0xCEF7_D8A2_2F79_3737,
                0xA74C_6D5C_175A_96A1,
                0x7F10_DC54_0279_91B4,
                0xAA08_8325_F529_1E0E,
                0x2315_715F_0548_BFEE,
            ],
        ),
    ];
    let path = unique_path("byte_identity");
    for (signer, want) in pinned {
        let (crcs, _, _) = scripted_file(signer, &path);
        assert_eq!(crcs, want, "{signer:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_writers_rewrite_the_bytes_they_read() {
    // A reopened writer holds segments decoded from disk, with the
    // checksums the open scan verified. Rewriting them must reproduce
    // the original writer's vacuum byte for byte — encode(decode(p)) ==
    // p for every payload — whether the reopened file still carries dead
    // blocks or is already minimal.
    let path = unique_path("reopen_rewrite");
    for signer in [SignerKind::KMins, SignerKind::Oph] {
        let (_, before_vacuum, vacuumed) = scripted_file(signer, &path);
        for image in [&before_vacuum, &vacuumed] {
            std::fs::write(&path, image).unwrap();
            let mut reopened = IndexWriter::open(&path).unwrap();
            assert!(reopened.vacuum().unwrap().rewritten, "a reopened writer rewrites once");
            assert_eq!(std::fs::read(&path).unwrap(), vacuumed, "{signer:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_level_round_trip_with_magic_constant() {
    let collection =
        SampleCollection::from_sorted_sets(vec![(0..100u64).collect(), (50..150u64).collect()])
            .unwrap();
    let options = IndexOptions::from_config(IndexConfig::default().with_signature_len(64));
    let index = options.build_index(&collection).unwrap();
    let path = unique_path("file");
    persist(&options, &collection, &path);
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(&raw[..8], &MAGIC, "files start with the container magic");
    let loaded = IndexReader::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.segments(), index.segments());
}
