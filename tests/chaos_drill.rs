//! Deterministic chaos drill: exercise the fault-injection story end to
//! end — storage crashes, service retries and degraded queries, and
//! distributed failover — under a seeded plan, and pin the invariants
//! the README promises, one `#[test]` per scenario:
//!
//! * **storage** — every injected commit fault (scripted plus a seeded
//!   random plan) leaves the container servable at a previously
//!   committed generation with bit-identical answers, and the next
//!   clean commit heals the file (no torn bytes on reopen);
//! * **service** — a one-shot storage fault is absorbed by
//!   `commit_wait_retry` (bounded attempts, deterministic backoff), a
//!   persistent fault exhausts into a typed `RetryExhausted`, the next
//!   clean retry heals, a maintenance pass whose vacuum faults is
//!   counted and leaves the file serving unchanged answers until a
//!   healed pass finishes the rewrite, and a stale cursor degrades into
//!   a fresh-snapshot restart with the explicit `degraded` flag instead
//!   of an error;
//! * **dist** — a crashed rank with surviving band replicas serves
//!   bit-identically to the fault-free run; without replicas the batch
//!   degrades with exact lost-band accounting, typed everywhere, and
//!   never panics.
//!
//! `GAS_CHAOS_SEED` (default 1) seeds every fault plan; the same seed
//! replays the same schedule bit-for-bit. A test-name filter picks one
//! scenario: `GAS_CHAOS_SEED=2 cargo test --release --test chaos_drill
//! -- service`.
//!
//! Each test writes its report row to `results/chaos_drill_<scenario>.json`
//! *before* asserting, so a tripped invariant still leaves the
//! diagnostic artifact for CI to upload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gas_chaos::decoy_path;
use gas_dstsim::{RankFaults, Runtime, SimError};
use gas_index::{
    dist_query_reader_batch, dist_query_reader_batch_replicated, ChaosStorage, FaultKind,
    FaultPlan, IndexConfig, IndexError, IndexOptions, IndexReader, IndexService, IndexWriter,
    LocalIndexService, Neighbor, PageRequest, QueryEngine, QueryOptions, RealFs,
};
use gas_obs::{json_report, json_string};

/// How many recent generations the service keeps pinned for cursor
/// resumption (its fixed retention window).
const SNAPSHOT_RETENTION: usize = 8;

const KINDS: [FaultKind; 4] =
    [FaultKind::IoError, FaultKind::ShortWrite, FaultKind::TornWrite, FaultKind::FsyncLoss];

fn seed() -> u64 {
    std::env::var("GAS_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn unique_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gas_chaos_drill_{tag}_{}.gidx", std::process::id()))
}

fn sample(tag: u64) -> Vec<u64> {
    let base = (tag % 4) * 1_000;
    (base..base + 150).chain(tag * 7919..tag * 7919 + 25).collect()
}

fn probes() -> Vec<Vec<u64>> {
    (0..4u64).map(|f| (f * 1_000..f * 1_000 + 150).collect()).collect()
}

fn answers(reader: &IndexReader) -> Vec<Vec<Neighbor>> {
    let engine = QueryEngine::snapshot(reader.clone());
    let opts = QueryOptions { top_k: 5, ..Default::default() };
    probes().iter().map(|q| engine.query(q, &opts).expect("drill query")).collect()
}

/// Write `scenario`'s report row — its seed, its own `facts` (each
/// value JSON text) and the outcome — then fail on any violation.
fn record_and_assert(scenario: &str, seed: u64, facts: &[(&str, String)], violations: &[String]) {
    let outcome = if violations.is_empty() { "ok" } else { "FAIL" };
    let row = [("scenario", json_string(scenario)), ("seed", seed.to_string())]
        .into_iter()
        .chain(facts.iter().cloned())
        .chain([("outcome", json_string(outcome))])
        .map(|(column, value)| (column.to_string(), value))
        .collect();
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create the results directory");
    let path = dir.join(format!("chaos_drill_{scenario}.json"));
    std::fs::write(&path, json_report(&format!("Chaos drill: {scenario}"), vec![row]))
        .expect("write the drill report");
    assert!(
        violations.is_empty(),
        "{} chaos invariant(s) violated under seed {seed} ({scenario}):\n{}",
        violations.len(),
        violations.join("\n")
    );
}

/// Storage drill: scripted one-shot faults of every kind, then a seeded
/// random plan, against a live commit history. After every injected
/// crash the file must reopen at a recorded generation bit-identically,
/// and a clean commit must heal it.
#[test]
fn storage() {
    let seed = seed();
    let mut violations = Vec::new();
    let path = unique_path("storage");
    std::fs::remove_file(&path).ok();
    let config = IndexConfig::default().with_signature_len(64).with_threshold(0.5);
    let mut writer =
        IndexOptions::from_config(config).create_writer_at(&path).expect("create drill writer");

    let mut recorded: BTreeMap<u64, Vec<Vec<Neighbor>>> = BTreeMap::new();
    let mut next_tag = 0u64;
    let mut commit_two = |w: &mut IndexWriter| -> Result<(), IndexError> {
        for _ in 0..2 {
            w.add(format!("s{next_tag}"), sample(next_tag))?;
            next_tag += 1;
        }
        w.commit().map(|_| ())
    };
    commit_two(&mut writer).expect("seed generation");
    recorded.insert(writer.generation(), answers(&writer.reader()));

    let mut injected = 0u64;
    let mut recoveries = 0u64;
    // Scripted pass (one fault of each kind at the first storage op of a
    // commit), then ten rounds under the seeded random plan.
    let plans: Vec<FaultPlan> = KINDS
        .iter()
        .map(|&k| FaultPlan::seeded(seed, 0).script(0, k))
        .chain((0..10).map(|round| FaultPlan::seeded(seed ^ round, 400)))
        .collect();
    for plan in plans {
        let chaos = Arc::new(ChaosStorage::over_fs(plan));
        writer.set_storage(chaos.clone());
        let crashed = match commit_two(&mut writer) {
            Ok(()) => {
                // A lying fsync reports success; treat any injected op
                // as a crash site and force the reopen check.
                recorded.insert(writer.generation(), answers(&writer.reader()));
                chaos.ops_seen() > 0 && IndexReader::open(&path).is_err()
            }
            Err(IndexError::Io(_)) => true,
            Err(other) => {
                violations.push(format!("commit failed with a non-Io error: {other}"));
                false
            }
        };
        if !crashed {
            // Even a clean round must leave the file openable; a silent
            // fsync loss surfaces here as a prior-generation fallback.
            let reader = IndexReader::open(&path).expect("reopen after clean round");
            if !recorded.contains_key(&reader.generation()) {
                violations.push(format!(
                    "clean round reopened at unrecorded generation {}",
                    reader.generation()
                ));
            }
            continue;
        }
        injected += 1;
        drop(writer);
        let reopened = match IndexWriter::open(&path) {
            Ok(reopened) => reopened,
            Err(e) => {
                violations.push(format!("file failed to reopen after injected crash: {e}"));
                break;
            }
        };
        let generation = reopened.generation();
        match recorded.get(&generation) {
            Some(want) if &answers(&reopened.reader()) == want => recoveries += 1,
            Some(_) => {
                violations.push(format!("generation {generation} answers diverged after crash"))
            }
            None => violations.push(format!("reopened at unrecorded generation {generation}")),
        }
        recorded.split_off(&(generation + 1));
        writer = reopened;
        // Heal under the real filesystem: commit must succeed and leave
        // no torn tail.
        commit_two(&mut writer).expect("healing commit");
        let (healed, report) = IndexReader::open_with_report(&path).expect("reopen healed");
        if report.torn_bytes != 0 {
            violations.push(format!("healing commit left {} torn bytes", report.torn_bytes));
        }
        recorded.insert(healed.generation(), answers(&healed));
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(decoy_path(&path)).ok();
    if injected == 0 {
        violations.push("the scripted plans injected no faults".into());
    }
    record_and_assert(
        "storage",
        seed,
        &[("faults_injected", injected.to_string()), ("recoveries", recoveries.to_string())],
        &violations,
    );
}

/// Service drill: retry absorbs a one-shot fault, exhausts typed under
/// a persistent one, heals clean, maintenance survives a faulted vacuum,
/// and a stale cursor degrades into a flagged restart.
#[test]
fn service() {
    let seed = seed();
    let mut violations = Vec::new();
    let path = unique_path("service");
    std::fs::remove_file(&path).ok();
    let service = IndexOptions::new()
        .with_signature_len(64)
        .with_threshold(0.5)
        .with_auto_compact(false)
        .serve_at(&path)
        .expect("serve drill index");
    let batch = |from: u64| -> Vec<(String, Vec<u64>)> {
        (from..from + 2).map(|t| (format!("s{t}"), sample(t))).collect()
    };
    service.add_batch(batch(0)).expect("seed batch");
    service.commit_wait().expect("seed commit");

    // One-shot fault: absorbed by the bounded retry loop.
    service.set_storage(Arc::new(ChaosStorage::over_fs(
        FaultPlan::seeded(seed, 0).script(0, FaultKind::IoError),
    )));
    service.add_batch(batch(2)).expect("stage retried batch");
    let mut retried_ok = false;
    match service.commit_wait_retry() {
        Ok(_) => retried_ok = true,
        Err(e) => violations.push(format!("retry failed to absorb a one-shot fault: {e}")),
    }
    // Persistent fault: bounded attempts exhaust into a typed error.
    service.set_storage(Arc::new(ChaosStorage::over_fs(
        FaultPlan::seeded(seed, 1_000).with_kinds(&[FaultKind::IoError]),
    )));
    service.add_batch(batch(4)).expect("stage doomed batch");
    let mut exhausted_typed = false;
    match service.commit_wait_retry() {
        Err(IndexError::RetryExhausted { attempts, .. }) if attempts >= 2 => {
            exhausted_typed = true;
        }
        Err(other) => violations.push(format!("persistent fault surfaced untyped: {other}")),
        Ok(_) => violations.push("persistent fault plan let a commit through".into()),
    }
    // Heal: the same staged state persists cleanly once faults stop.
    service.set_storage(Arc::new(RealFs));
    if let Err(e) = service.commit_wait_retry() {
        violations.push(format!("healing retry failed under RealFs: {e}"));
    }

    maintenance_leg(&service, seed, &path, &mut violations);

    // Stale cursor: SNAPSHOT_RETENTION + 1 newer pinned generations
    // evict the paged snapshot; the degraded path restarts instead of
    // erroring.
    let queries = probes();
    let first = service
        .query_paged(&queries, &PageRequest::new(1))
        .expect("first page")
        .into_iter()
        .next()
        .expect("one page per query");
    let mut degraded_flagged = false;
    if let Some(stale) = first.next_cursor {
        for from in (100u64..).step_by(2).take(SNAPSHOT_RETENTION + 1) {
            service.add_batch(batch(from)).expect("staling batch");
            service.commit_wait().expect("staling commit");
            // A fresh scan pins the new generation.
            service.query_paged(&queries, &PageRequest::new(1)).expect("fresh scan");
        }
        let mut request = PageRequest::new(1);
        request.cursor = Some(stale);
        match service.query_paged_degraded(&queries, &request) {
            Ok(result) if result.degraded && result.causes.stale_cursor > 0 => {
                degraded_flagged = !result.pages.is_empty();
                if !degraded_flagged {
                    violations.push("degraded restart returned no pages".into());
                }
            }
            Ok(_) => violations.push("stale cursor was not flagged as degraded".into()),
            Err(e) => violations.push(format!("degraded query errored instead of restarting: {e}")),
        }
    } else {
        violations.push("drill workload produced no second page".into());
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(decoy_path(&path)).ok();
    record_and_assert(
        "service",
        seed,
        &[
            ("retried_ok", retried_ok.to_string()),
            ("exhausted_typed", exhausted_typed.to_string()),
            ("degraded_flagged", degraded_flagged.to_string()),
        ],
        &violations,
    );
}

/// The service drill's maintenance leg: commits fill a size tier, the
/// merge's vacuum hits a seeded storage fault, and a healed pass finishes
/// the rewrite. The failed rewrite must be counted and leave a file that
/// reopens to unchanged answers; after healing the file must sit within
/// 1.5× its live image plus what the last pass appended.
fn maintenance_leg(
    service: &LocalIndexService,
    seed: u64,
    path: &Path,
    violations: &mut Vec<String>,
) {
    for from in [10u64, 12] {
        service
            .add_batch((from..from + 2).map(|t| (format!("s{t}"), sample(t))).collect())
            .expect("tier-filling batch");
        service.commit_wait().expect("tier-filling commit");
    }
    let want = answers(&service.snapshot());
    let file_len = || std::fs::metadata(path).map_or(0, |m| m.len());

    // Op 0 is the merge's append, op 1 the vacuum's replace; every kind
    // fails a replace before its rename.
    service.set_storage(Arc::new(ChaosStorage::over_fs(
        FaultPlan::seeded(seed, 0).script(1, KINDS[seed as usize % KINDS.len()]),
    )));
    service.maintain();
    let compact = service.stats().compact;
    if (compact.passes, compact.vacuums_run, compact.vacuums_failed) != (1, 0, 1) {
        violations.push(format!(
            "faulted pass: {} merges, {} vacuums run, {} failed (want 1, 0, 1)",
            compact.passes, compact.vacuums_run, compact.vacuums_failed
        ));
    }
    match IndexReader::open(path) {
        Ok(reader) if answers(&reader) == want => {}
        Ok(_) => violations.push("answers changed after a failed vacuum".into()),
        Err(e) => violations.push(format!("file failed to reopen after a failed vacuum: {e}")),
    }

    service.set_storage(Arc::new(RealFs));
    let before = file_len();
    service.maintain();
    let stats = service.stats();
    let after = file_len();
    let appended = after.saturating_sub(before);
    if stats.compact.vacuums_run != 1 {
        violations.push(format!("the healed pass ran {} vacuums", stats.compact.vacuums_run));
    }
    if 2 * after > 3 * stats.file_live_bytes + 2 * appended {
        violations.push(format!(
            "healed file of {after} bytes exceeds 1.5x its {}-byte live image plus {appended} appended",
            stats.file_live_bytes
        ));
    }
    match IndexReader::open(path) {
        Ok(reader) if answers(&reader) == want => {}
        Ok(_) => violations.push("answers changed after the healed vacuum".into()),
        Err(e) => violations.push(format!("file failed to reopen after the healed vacuum: {e}")),
    }
}

/// Distributed drill: a crashed rank fails over to surviving band
/// replicas bit-identically; without replicas the batch degrades with
/// exact lost-band accounting — typed, never a panic.
#[test]
fn dist() {
    let seed = seed();
    let mut violations = Vec::new();
    const RANKS: usize = 4;
    let crashed = 1 + (seed as usize % (RANKS - 1));
    let make_reader = || {
        let mut writer = IndexOptions::new()
            .with_signature_len(64)
            .with_threshold(0.4)
            .open_writer()
            .expect("dist drill writer");
        for tag in 0..12u64 {
            writer.add(format!("s{tag}"), sample(tag)).expect("dist add");
            if tag % 5 == 4 {
                writer.commit().expect("dist commit");
            }
        }
        writer.commit().expect("dist final commit");
        writer.reader()
    };
    let opts = QueryOptions { top_k: 5, ..Default::default() };
    let queries = probes();

    // Fault-free baseline through the plain sharded path.
    let baseline = {
        let queries = queries.clone();
        let out = Runtime::new(RANKS)
            .run(move |ctx| {
                let reader = make_reader();
                let q = (ctx.rank() == 0).then_some(queries.as_slice());
                dist_query_reader_batch(ctx.world(), &reader, None, q, &opts)
            })
            .expect("fault-free run");
        out.results.into_iter().next().expect("rank 0 result").expect("fault-free answers")
    };

    // Crash with replication 2: every surviving rank answers
    // bit-identically to the baseline, degraded = false.
    let mut failover_ok = true;
    let faulted = Runtime::new(RANKS)
        .with_faults(RankFaults::none().crash(crashed).with_recv_timeout(2_000_000))
        .run({
            let queries = queries.clone();
            move |ctx| {
                let reader = make_reader();
                let alive_ingress = ctx.world().alive_world_ranks().first() == Some(&ctx.rank());
                let q = alive_ingress.then(|| queries.clone());
                dist_query_reader_batch_replicated(
                    ctx.world(),
                    &reader,
                    None,
                    q.as_deref(),
                    &opts,
                    2,
                )
            }
        })
        .expect("replicated run");
    for (rank, result) in faulted.results.into_iter().enumerate() {
        match result {
            Ok((got, report, _)) if rank != crashed => {
                if got != baseline {
                    failover_ok = false;
                    violations.push(format!("rank {rank} diverged from the fault-free answers"));
                }
                if report.degraded {
                    failover_ok = false;
                    violations.push(format!("rank {rank} reported degraded despite replicas"));
                }
            }
            Err(IndexError::Sim(SimError::RankCrashed { .. })) if rank == crashed => {}
            Ok(_) => {
                failover_ok = false;
                violations.push(format!("crashed rank {rank} returned answers"));
            }
            Err(e) => {
                failover_ok = false;
                violations.push(format!("rank {rank} failed typed-failover: {e}"));
            }
        }
    }

    // Crash with replication 1: typed degradation with exact lost-band
    // accounting on every survivor.
    let mut lost_bands_seen = 0usize;
    let unreplicated = Runtime::new(RANKS)
        .with_faults(RankFaults::none().crash(crashed).with_recv_timeout(2_000_000))
        .run({
            let queries = queries.clone();
            move |ctx| {
                let reader = make_reader();
                let expected_lost: Vec<usize> =
                    (0..reader.params().bands()).filter(|b| b % RANKS == crashed).collect();
                let alive_ingress = ctx.world().alive_world_ranks().first() == Some(&ctx.rank());
                let q = alive_ingress.then(|| queries.clone());
                dist_query_reader_batch_replicated(
                    ctx.world(),
                    &reader,
                    None,
                    q.as_deref(),
                    &opts,
                    1,
                )
                .map(|(answers, report, _)| (answers, report, expected_lost))
            }
        })
        .expect("unreplicated run");
    let mut survivor_answers: Option<Vec<Vec<Neighbor>>> = None;
    for (rank, result) in unreplicated.results.into_iter().enumerate() {
        match result {
            Ok((got, report, expected_lost)) if rank != crashed => {
                if !report.degraded || report.lost_bands != expected_lost {
                    violations.push(format!(
                        "rank {rank} mis-accounted the lost bands: {:?} vs {expected_lost:?}",
                        report.lost_bands
                    ));
                }
                lost_bands_seen = report.lost_bands.len();
                match &survivor_answers {
                    None => survivor_answers = Some(got),
                    Some(first) if first == &got => {}
                    Some(_) => {
                        violations.push(format!("rank {rank} disagreed with other survivors"))
                    }
                }
            }
            Err(IndexError::Sim(SimError::RankCrashed { .. })) if rank == crashed => {}
            Ok(_) => violations.push(format!("crashed rank {rank} returned answers")),
            Err(e) => violations.push(format!("rank {rank} panicked the typed path: {e}")),
        }
    }

    record_and_assert(
        "dist",
        seed,
        &[
            ("crashed_rank", crashed.to_string()),
            ("failover_ok", failover_ok.to_string()),
            ("lost_bands", lost_bands_seen.to_string()),
        ],
        &violations,
    );
}
