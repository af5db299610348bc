//! Crash-recovery torture drill: random seeded fault plans over random
//! `add / commit / delete / compact / vacuum` sequences, under both
//! signers. The contract being tortured is the container's generation
//! protocol extended through the chaos storage layer:
//!
//! * any injected storage fault (transient error, short or torn write,
//!   lost fsync) surfaces as a typed `IndexError::Io` — never a panic —
//!   and the backing file **always reopens**, serving some previously
//!   committed generation bit-identically;
//! * the next successful commit after a fault heals the file: a fresh
//!   reopen sees no torn bytes and the writer's full state.
//!
//! Fault plans are deterministic (seeded, per-operation counter), so a
//! failing case shrinks and replays exactly.

use genomeatscale::chaos::decoy_path;
use genomeatscale::index::IndexError;
use genomeatscale::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn unique_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gas_chaos_it_{tag}_{}_{n}.gidx", std::process::id()))
}

/// One logical step of the torture schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    AddCommit,
    Delete,
    Compact,
    Vacuum,
    /// Drop the writer mid-run without an error (a process crash) and
    /// reopen from disk.
    Crash,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..8).prop_map(|c| match c {
            0..=2 => Op::AddCommit,
            3 => Op::Delete,
            4 => Op::Compact,
            5 => Op::Vacuum,
            _ => Op::Crash,
        }),
        4..14,
    )
}

fn probe(salt: u64) -> Vec<u64> {
    (salt * 37..salt * 37 + 40).collect()
}

fn sample(tag: u64) -> Vec<u64> {
    // Overlapping families so queries have real neighbors to rank.
    let base = (tag % 3) * 1_000;
    (base..base + 120).chain(tag * 7_000..tag * 7_000 + 12).collect()
}

/// The full answer surface we require to be bit-identical across a
/// recovery: one ranking per probe family.
fn answers(reader: &IndexReader) -> Vec<Vec<Neighbor>> {
    let engine = QueryEngine::snapshot(reader.clone());
    (0..3u64)
        .map(|salt| {
            engine
                .query(&probe(salt), &QueryOptions { top_k: 6, ..Default::default() })
                .expect("query on a served snapshot")
        })
        .collect()
}

/// Reopen `path` with the real filesystem. Must always succeed, and the
/// served generation must be one the run previously committed, with
/// bit-identical answers. Returns the reopened writer and the surviving
/// generation.
fn reopen_and_check(
    path: &std::path::Path,
    recorded: &BTreeMap<u64, Vec<Vec<Neighbor>>>,
) -> (IndexWriter, u64) {
    let writer = IndexWriter::open(path)
        .unwrap_or_else(|e| panic!("file must reopen after any injected fault: {e}"));
    let generation = writer.generation();
    let want = recorded
        .get(&generation)
        .unwrap_or_else(|| panic!("reopened generation {generation} was never committed"));
    assert_eq!(
        &answers(&writer.reader()),
        want,
        "reopened generation {generation} must answer bit-identically"
    );
    (writer, generation)
}

fn run_case(signer: SignerKind, ops: &[Op], fault_seed: u64, per_mille: u16) {
    let path = unique_path("torture");
    let config =
        IndexConfig::default().with_signature_len(32).with_threshold(0.5).with_signer(signer);
    let mut writer = IndexOptions::from_config(config).create_writer_at(&path).unwrap();

    // Committed generations → their full answer surface, from the
    // writer's in-memory state (which a lying fsync lets run ahead of
    // disk — exactly what the reopen check is for).
    let mut recorded: BTreeMap<u64, Vec<Vec<Neighbor>>> = BTreeMap::new();
    recorded.insert(writer.generation(), answers(&writer.reader()));

    let chaos = Arc::new(ChaosStorage::over_fs(FaultPlan::seeded(fault_seed, per_mille)));
    writer.set_storage(chaos.clone());

    let mut next_tag = 0u64;
    let mut add = |w: &mut IndexWriter| {
        for _ in 0..2 {
            w.add(format!("s{next_tag}"), sample(next_tag)).unwrap();
            next_tag += 1;
        }
    };

    for (step, op) in ops.iter().enumerate() {
        let result: Result<(), IndexError> = match op {
            Op::AddCommit => {
                add(&mut writer);
                writer.commit().map(|_| ())
            }
            Op::Delete => {
                let bound = writer.id_bound();
                if bound == 0 {
                    continue;
                }
                let id = (genomeatscale::core::minhash::splitmix64(fault_seed ^ step as u64)
                    % bound as u64) as u32;
                match writer.delete(id) {
                    // Already tombstoned / never committed: not a fault.
                    Err(IndexError::UnknownSample { .. }) => continue,
                    other => other.and_then(|_| writer.commit().map(|_| ())),
                }
            }
            Op::Compact => writer.compact_all().map(|_| ()),
            Op::Vacuum => writer.vacuum().map(|_| ()),
            Op::Crash => Err(IndexError::InvalidConfig("forced crash".into())),
        };
        match result {
            Ok(()) => {
                recorded.insert(writer.generation(), answers(&writer.reader()));
            }
            Err(IndexError::Io(_)) | Err(IndexError::InvalidConfig(_)) => {
                // Injected fault (or forced crash): drop the writer and
                // recover from whatever the disk holds.
                drop(writer);
                let (reopened, generation) = reopen_and_check(&path, &recorded);
                writer = reopened;
                // Generations after the surviving one are lost history:
                // the healed timeline will reuse their numbers with
                // different content.
                recorded.split_off(&(generation + 1));

                // Heal: one fresh commit must leave the file clean and
                // fully caught up, chaos out of the way.
                add(&mut writer);
                writer.commit().expect("healing commit under RealFs");
                let (healed, report) = IndexReader::open_with_report(&path).unwrap();
                assert_eq!(report.torn_bytes, 0, "the healing commit truncates torn tails");
                assert_eq!(healed.generation(), writer.generation());
                assert_eq!(
                    answers(&healed),
                    answers(&writer.reader()),
                    "after healing, disk and memory must agree"
                );
                recorded.insert(writer.generation(), answers(&writer.reader()));
                // Re-arm injection for the rest of the schedule.
                writer.set_storage(chaos.clone());
            }
            Err(other) => panic!("unexpected error class from {op:?}: {other}"),
        }
    }

    // Epilogue: whatever the schedule left behind, the file recovers
    // and heals one last time.
    drop(writer);
    let (mut writer, _) = reopen_and_check(&path, &recorded);
    add(&mut writer);
    writer.commit().unwrap();
    let (final_reader, report) = IndexReader::open_with_report(&path).unwrap();
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(answers(&final_reader), answers(&writer.reader()));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(decoy_path(&path)).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The torture drill proper: every schedule, fault seed and fault
    /// rate must uphold reopen-and-heal, under both signers.
    #[test]
    fn any_fault_schedule_leaves_a_servable_generation_and_heals(
        ops in ops(),
        fault_seed in 0u64..10_000,
        per_mille in 100u32..700,
    ) {
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            run_case(signer, &ops, fault_seed, per_mille as u16);
        }
    }
}

/// A pinned, non-random instance of the worst single fault — a lying
/// fsync on a commit — so the drill's core claim has a deterministic
/// regression test too.
#[test]
fn lying_fsync_is_caught_at_reopen_and_healed() {
    let path = unique_path("fsync");
    let config = IndexConfig::default().with_signature_len(32).with_threshold(0.5);
    let mut w = IndexOptions::from_config(config).create_writer_at(&path).unwrap();
    w.add("a", sample(1)).unwrap();
    w.commit().unwrap();
    let survivor = answers(&w.reader());

    w.set_storage(Arc::new(ChaosStorage::over_fs(
        FaultPlan::seeded(1, 0).script(0, FaultKind::FsyncLoss),
    )));
    w.add("b", sample(2)).unwrap();
    w.commit().expect("the lying fsync reports success");
    drop(w);

    let (reader, report) = IndexReader::open_with_report(&path).unwrap();
    assert_eq!(reader.generation(), 1, "the silent loss falls back to the durable generation");
    assert!(report.torn_bytes > 0);
    assert_eq!(answers(&reader), survivor);

    let mut w = IndexWriter::open(&path).unwrap();
    w.add("b2", sample(2)).unwrap();
    w.commit().unwrap();
    let (healed, report) = IndexReader::open_with_report(&path).unwrap();
    assert_eq!(report.torn_bytes, 0);
    assert_eq!(healed.generation(), 2);
    std::fs::remove_file(&path).ok();
}
