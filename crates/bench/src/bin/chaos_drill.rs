//! Deterministic chaos drill: exercise the fault-injection story end to
//! end — storage crashes, service retries and degraded queries, and
//! distributed failover — under a seeded plan, and pin the invariants
//! the README promises:
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
//! Configuration: `GAS_CHAOS_SEED` (default 1) seeds every fault plan;
//! `GAS_CHAOS_SCENARIO` picks `storage`, `service`, `dist` or `all`
//! (default). The same seed replays the same schedule bit-for-bit.
//!
//! Writes `results/chaos_drill.json` — one row per scenario — *before*
//! asserting, so a tripped invariant still leaves the diagnostic
//! artifact for CI to upload.

use std::collections::BTreeMap;
use std::sync::Arc;

use gas_bench::report::Table;
use gas_dstsim::{RankFaults, Runtime, SimError};
use gas_index::{
    dist_query_reader_batch, dist_query_reader_batch_replicated, ChaosStorage, FaultKind,
    FaultPlan, IndexConfig, IndexError, IndexOptions, IndexReader, IndexService, IndexWriter,
    LocalIndexService, Neighbor, PageRequest, QueryEngine, QueryOptions, RealFs,
};

fn seed() -> u64 {
    std::env::var("GAS_CHAOS_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

fn scenario() -> String {
    std::env::var("GAS_CHAOS_SCENARIO").unwrap_or_else(|_| "all".into())
}

fn unique_path(tag: &str) -> std::path::PathBuf {
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

/// One scenario's report row plus the violations it found (empty = ok).
struct Outcome {
    row: Vec<String>,
    violations: Vec<String>,
}

/// Storage drill: scripted one-shot faults of every kind, then a seeded
/// random plan, against a live commit history. After every injected
/// crash the file must reopen at a recorded generation bit-identically,
/// and a clean commit must heal it.
fn storage_drill(seed: u64) -> Outcome {
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
    let kinds =
        [FaultKind::IoError, FaultKind::ShortWrite, FaultKind::TornWrite, FaultKind::FsyncLoss];
    // Scripted pass (one fault of each kind at the first storage op of a
    // commit), then ten rounds under the seeded random plan.
    let plans: Vec<FaultPlan> = kinds
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
    if injected == 0 {
        violations.push("the scripted plans injected no faults".into());
    }
    Outcome {
        row: vec![
            "storage".into(),
            seed.to_string(),
            injected.to_string(),
            recoveries.to_string(),
            String::new(),
            String::new(),
            if violations.is_empty() { "ok".into() } else { "FAIL".into() },
        ],
        violations,
    }
}

/// Service drill: retry absorbs a one-shot fault, exhausts typed under
/// a persistent one, heals clean, maintenance survives a faulted vacuum,
/// and a stale cursor degrades into a flagged restart.
fn service_drill(seed: u64) -> Outcome {
    let mut violations = Vec::new();
    let path = unique_path("service");
    std::fs::remove_file(&path).ok();
    let service = IndexOptions::new()
        .with_signature_len(64)
        .with_threshold(0.5)
        .with_auto_compact(false)
        .with_snapshot_retention(1)
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

    // Stale cursor: retention 1 evicts the paged snapshot after two
    // commits; the degraded path restarts instead of erroring.
    let queries = probes();
    let first = service
        .query_paged(&queries, &PageRequest::new(1))
        .expect("first page")
        .into_iter()
        .next()
        .expect("one page per query");
    let Some(stale) = first.next_cursor else {
        violations.push("drill workload produced no second page".into());
        return Outcome {
            row: vec![
                "service".into(),
                seed.to_string(),
                String::new(),
                String::new(),
                retried_ok.to_string(),
                exhausted_typed.to_string(),
                "FAIL".into(),
            ],
            violations,
        };
    };
    for from in [6u64, 8] {
        service.add_batch(batch(from)).expect("staling batch");
        service.commit_wait().expect("staling commit");
    }
    // A fresh scan pins the new generation, evicting the cursor's
    // snapshot from the retention-1 cache.
    service.query_paged(&queries, &PageRequest::new(1)).expect("fresh scan");
    let mut request = PageRequest::new(1);
    request.cursor = Some(stale);
    let mut degraded_flagged = false;
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
    std::fs::remove_file(&path).ok();
    Outcome {
        row: vec![
            "service".into(),
            seed.to_string(),
            String::new(),
            String::new(),
            retried_ok.to_string(),
            format!("{}", exhausted_typed && degraded_flagged),
            if violations.is_empty() { "ok".into() } else { "FAIL".into() },
        ],
        violations,
    }
}

/// The service drill's maintenance leg: commits fill a size tier, the
/// merge's vacuum hits a seeded storage fault, and a healed pass finishes
/// the rewrite. The failed rewrite must be counted and leave a file that
/// reopens to unchanged answers; after healing the file must sit within
/// 1.5× its live image plus what the last pass appended.
fn maintenance_leg(
    service: &LocalIndexService,
    seed: u64,
    path: &std::path::Path,
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
    let kinds =
        [FaultKind::IoError, FaultKind::ShortWrite, FaultKind::TornWrite, FaultKind::FsyncLoss];
    service.set_storage(Arc::new(ChaosStorage::over_fs(
        FaultPlan::seeded(seed, 0).script(1, kinds[seed as usize % kinds.len()]),
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
    // A short or torn replace leaves its temp-file image in a decoy.
    let mut decoy = path.as_os_str().to_owned();
    decoy.push(".chaos-torn");
    std::fs::remove_file(decoy).ok();
}

/// Distributed drill: a crashed rank fails over to surviving band
/// replicas bit-identically; without replicas the batch degrades with
/// exact lost-band accounting — typed, never a panic.
fn dist_drill(seed: u64) -> Outcome {
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

    Outcome {
        row: vec![
            "dist".into(),
            seed.to_string(),
            crashed.to_string(),
            lost_bands_seen.to_string(),
            failover_ok.to_string(),
            String::new(),
            if violations.is_empty() { "ok".into() } else { "FAIL".into() },
        ],
        violations,
    }
}

fn main() {
    let seed = seed();
    let scenario = scenario();
    let outcomes: Vec<Outcome> = match scenario.as_str() {
        "storage" => vec![storage_drill(seed)],
        "service" => vec![service_drill(seed)],
        "dist" => vec![dist_drill(seed)],
        "all" => vec![storage_drill(seed), service_drill(seed), dist_drill(seed)],
        other => {
            eprintln!(
                "chaos_drill: unknown GAS_CHAOS_SCENARIO {other:?} (want storage|service|dist|all)"
            );
            std::process::exit(2);
        }
    };

    let mut table = Table::new(
        "Chaos drill: seeded fault injection across storage, service and dist",
        &[
            "scenario",
            "seed",
            "faults_injected",
            "recoveries",
            "retried_ok",
            "typed_degradation",
            "outcome",
        ],
    );
    for outcome in &outcomes {
        table.push_row(outcome.row.clone());
    }
    table.print();
    let dir = gas_bench::report::results_dir();
    let json = table.write_json(&dir, "chaos_drill").expect("write chaos_drill JSON");
    println!("Chaos-drill report written to {}", json.display());

    // The report is on disk; now trip on any violated invariant.
    let violations: Vec<&String> = outcomes.iter().flat_map(|o| o.violations.iter()).collect();
    for v in &violations {
        eprintln!("chaos_drill FAIL: {v}");
    }
    assert!(
        violations.is_empty(),
        "{} chaos invariant(s) violated under seed {seed} ({scenario})",
        violations.len()
    );
    println!("chaos_drill OK: all invariants held under seed {seed} ({scenario})");
}
