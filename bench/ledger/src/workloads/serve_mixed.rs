//! `serve_mixed` — a living index behind `LocalIndexService`: paged
//! queries beside adds, deletes, commits and foreground compaction.
//!
//! Why: the same index layer used differently from `serve_read` —
//! writes beside reads, fresh small segments, compaction stalls in the
//! foreground — so a read gain bought with seal, commit or compaction
//! cost shows here. One client and an explicit `maintain()` per cycle
//! (background compaction off) make every count repeat exactly.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gas_core::minhash::SignerKind;
use gas_index::{
    IndexConfig, IndexError, IndexOptions, IndexResult, IndexService, LocalIndexService,
    PageRequest, QueryEngine, QueryPage,
};

use super::corpus::Corpus;
use crate::harness::{self, splitmix64, Fnv, Outcome, RunArgs, ScratchDir, Workload};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;

pub const NAME: &str = "serve_mixed";

const SIGNATURE_LEN: usize = 128;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    families: u64,
    initial_rows: usize,
    load_commits: usize,
    /// Rounds per cycle; a cycle is one sample and ends with `maintain()`.
    rounds: usize,
    queries_per_round: usize,
    /// Rows added, and oldest live rows deleted, per round.
    writes_per_round: usize,
    /// Every this many cycles the answers are compared with a fresh
    /// engine over a fresh snapshot.
    oracle_every: u32,
    fixed_samples: u32,
}

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                families: 8,
                initial_rows: 256,
                load_commits: 4,
                rounds: 4,
                queries_per_round: 8,
                writes_per_round: 8,
                oracle_every: 2,
                fixed_samples: 6,
            }
        } else {
            Sizes {
                families: 125,
                initial_rows: 8_000,
                load_commits: 8,
                rounds: 4,
                queries_per_round: 128,
                writes_per_round: 64,
                oracle_every: 16,
                fixed_samples: 32,
            }
        }
    }
}

fn options() -> IndexOptions {
    let config = IndexConfig::default()
        .with_signature_len(SIGNATURE_LEN)
        .with_threshold(0.5)
        .with_signer(SignerKind::Oph);
    IndexOptions::from_config(config).with_auto_compact(false)
}

fn named_rows(corpus: &Corpus, ids: std::ops::Range<u64>) -> Vec<(String, Vec<u64>)> {
    ids.map(|id| (format!("r{id}"), corpus.row(id))).collect()
}

/// Fingerprint of the smoke-size fixture of `seed` (pinned by a test).
pub fn fixture_fingerprint(seed: u64) -> u64 {
    let sizes = Sizes::of(true);
    let corpus = Corpus::new(seed, sizes.families);
    let mut h = Fnv::default();
    for (_, row) in named_rows(&corpus, 0..sizes.initial_rows as u64) {
        h.words(&row);
    }
    h.words(&corpus.query(3, 7));
    h.finish()
}

/// The set-up a deployment pays before its first request: start the
/// service over a fresh file and load the initial corpus.
fn start_and_load(
    path: &Path,
    load: Vec<Vec<(String, Vec<u64>)>>,
) -> IndexResult<LocalIndexService> {
    let service = options().serve_at(path)?;
    for batch in load {
        service.add_batch(batch)?;
        service.commit_wait()?;
    }
    Ok(service)
}

/// The inputs of one cycle, prepared outside its timer.
struct CycleInputs {
    queries: Vec<Vec<Vec<u64>>>,
    adds: Vec<Vec<(String, Vec<u64>)>>,
    deletes: Vec<Vec<u32>>,
}

struct Mixed {
    service: LocalIndexService,
    corpus: Corpus,
    sizes: Sizes,
    seed: u64,
    /// The model: ids that must be live, oldest first.
    live: VecDeque<u32>,
    next_id: u64,
    rows_added: u64,
    stale_cursors: u64,
}

const PAGE: PageRequest =
    PageRequest { cursor: None, page_size: 10, min_score: 0.0, rerank_exact: false };

impl Mixed {
    fn prepare(&self, cycle: u32) -> CycleInputs {
        let s = &self.sizes;
        let doomed = s.rounds * s.writes_per_round;
        // Queries sit near rows that stay live through the whole cycle.
        let survivors = self.live.len() - doomed;
        let queries = (0..s.rounds)
            .map(|round| {
                (0..s.queries_per_round)
                    .map(|k| {
                        let salt = (u64::from(cycle) << 20) | ((round as u64) << 10) | k as u64;
                        let pick = splitmix64(self.seed ^ 0x9e ^ salt) % survivors as u64;
                        self.corpus.query(u64::from(self.live[doomed + pick as usize]), salt)
                    })
                    .collect()
            })
            .collect();
        let adds = (0..s.rounds as u64)
            .map(|round| {
                let first = self.next_id + round * s.writes_per_round as u64;
                named_rows(&self.corpus, first..first + s.writes_per_round as u64)
            })
            .collect();
        let deletes = (0..s.rounds)
            .map(|round| {
                self.live
                    .iter()
                    .skip(round * s.writes_per_round)
                    .take(s.writes_per_round)
                    .copied()
                    .collect()
            })
            .collect();
        CycleInputs { queries, adds, deletes }
    }

    /// One round: the queries, then the writes and their commit.
    /// Returns whether every call succeeded with the expected counts.
    fn round(
        &self,
        queries: &[Vec<u64>],
        adds: Vec<(String, Vec<u64>)>,
        deletes: &[u32],
        expect_first_id: u64,
        t: &mut Option<&mut Tracer>,
    ) -> IndexResult<bool> {
        let service = &self.service;
        let mut ok = true;
        span(t, "index.service.query_paged", || {
            for q in queries {
                ok &= service.query_paged(std::slice::from_ref(q), &PAGE)?.len() == 1;
            }
            IndexResult::Ok(())
        })?;
        let added = adds.len();
        let range = span(t, "index.lifecycle.add", || service.add_batch(adds))?;
        ok &= u64::from(range.start) == expect_first_id && range.len() == added;
        span(t, "index.lifecycle.delete", || {
            deletes.iter().try_for_each(|&id| service.delete(id))
        })?;
        let summary = span(t, "index.service.commit", || service.commit_wait())?;
        ok &= summary.rows_added == added && summary.deletes_applied == deletes.len();
        Ok(ok)
    }

    /// Answers of the service against a fresh engine over a fresh
    /// snapshot.
    fn oracle_agrees(&self, queries: &[Vec<u64>]) -> IndexResult<bool> {
        let mut served: Vec<QueryPage> = Vec::with_capacity(queries.len());
        for q in queries {
            served.extend(self.service.query_paged(std::slice::from_ref(q), &PAGE)?);
        }
        let fresh =
            QueryEngine::snapshot(self.service.snapshot()).query_page_batch(queries, &PAGE)?;
        Ok(served == fresh && served.iter().all(|page| !page.hits.is_empty()))
    }
}

/// Run `f` under a span when tracing, bare otherwise.
fn span<R>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.scope(name, |_| f()),
        None => f(),
    }
}

impl Workload for Mixed {
    fn ops_per_sample(&self) -> u64 {
        self.sizes.rounds as u64
    }

    fn sample(&mut self, index: u32, tracer: Option<&mut Tracer>) -> Outcome {
        let CycleInputs { queries, adds, deletes } = self.prepare(index);
        let writes = self.sizes.writes_per_round as u64;
        let mut failed = 0u64;
        let started = Instant::now();
        let cycle = |t: &mut Option<&mut Tracer>| {
            let mut failed = 0u64;
            let mut stale = 0u64;
            for (round, adds) in adds.into_iter().enumerate() {
                let first_id = self.next_id + round as u64 * writes;
                match self.round(&queries[round], adds, &deletes[round], first_id, t) {
                    Ok(true) => {}
                    Ok(false) => failed += 1,
                    Err(e) => {
                        failed += 1;
                        stale += u64::from(matches!(e, IndexError::StaleCursor { .. }));
                    }
                }
            }
            span(t, "index.service.maintain", || self.service.maintain());
            (failed, stale)
        };
        let (cycle_failed, stale) = match tracer {
            Some(t) => t.scope("op", |t| cycle(&mut Some(t))),
            None => cycle(&mut None),
        };
        let elapsed = started.elapsed();
        failed += cycle_failed;
        self.stale_cursors += stale;
        // The model follows the cycle: the oldest rows are gone, the
        // new ones are live.
        let rounds = self.sizes.rounds as u64;
        self.live.drain(..(rounds * writes) as usize);
        self.live.extend((self.next_id..self.next_id + rounds * writes).map(|id| id as u32));
        self.next_id += rounds * writes;
        self.rows_added += rounds * writes;
        if index % self.sizes.oracle_every == 0
            && !self.oracle_agrees(&queries[queries.len() - 1]).unwrap_or(false)
        {
            failed += rounds;
        }
        Outcome { elapsed, failed: failed.min(rounds) }
    }
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args.smoke);
    let mut report = Report::new(NAME, args.seed, args.trace, !args.smoke);
    let corpus = Corpus::new(args.seed, sizes.families);
    let dir = ScratchDir::new(NAME).expect("results/tmp is writable");
    let path_of = |round: usize| dir.path().join(format!("service-{round}.gidx"));
    let per_commit = sizes.initial_rows / sizes.load_commits;
    let mut final_path = PathBuf::new();
    let (setup_s, service) = harness::time_setups(
        |round| {
            if round > 0 {
                std::fs::remove_file(path_of(round - 1)).expect("the previous index file exists");
            }
            final_path = path_of(round);
            let load = (0..sizes.load_commits as u64)
                .map(|c| named_rows(&corpus, c * per_commit as u64..(c + 1) * per_commit as u64))
                .collect();
            (path_of(round), load)
        },
        |(path, load)| start_and_load(&path, load).expect("the service starts and loads"),
    );
    let mut w = Mixed {
        service,
        corpus,
        sizes,
        seed: args.seed,
        live: (0..sizes.initial_rows as u32).collect(),
        next_id: sizes.initial_rows as u64,
        rows_added: sizes.initial_rows as u64,
        stale_cursors: 0,
    };
    let measured = harness::measure_and_report(
        &mut w,
        args,
        sizes.fixed_samples,
        &mut report,
        setup_s,
        "round(s) failed, miscounted, or disagreed with a fresh engine",
    );
    let stats = w.service.stats();
    let n_live = w.service.snapshot().n_live();
    if n_live != w.live.len() || stats.live_samples != w.live.len() {
        report.fail(format!("{n_live} rows are live, the model holds {}", w.live.len()));
    }
    let shed = stats.commit.shed + stats.query.shed;
    if shed > 0 {
        report.fail(format!("{shed} request(s) were shed with one client"));
    }
    if !args.trace {
        return report;
    }
    let t = &measured.tracer;
    let sum_ms = |name: &str| t.per_sample_ms(name).iter().sum::<f64>();
    let adds_us = t.durations_us("index.lifecycle.add");
    report.set("index.lifecycle.add_us", stats::median_of(adds_us) / sizes.writes_per_round as f64);
    let commits_ms = stats::sorted(
        t.durations_us("index.service.commit").into_iter().map(|us| us / 1e3).collect(),
    );
    report.set("index.service.commit_ms", stats::median(&commits_ms));
    report.set("index.service.commit_tail_ms", stats::tail_value(&commits_ms));
    report.set("index.service.maintain_ms", t.median_sample_ms("index.service.maintain"));
    let write_ms = sum_ms("index.lifecycle.add")
        + sum_ms("index.lifecycle.delete")
        + sum_ms("index.service.commit")
        + sum_ms("index.service.maintain");
    report.set("index.service.write_share", write_ms / sum_ms("op"));
    report.set("index.service.compaction_passes", stats.compact.passes as f64);
    report.set("index.service.segments_end", stats.segments as f64);
    report.set("index.service.shed", shed as f64);
    report.set("index.service.stale_cursors", w.stale_cursors as f64);
    // Rows, not bytes: every row is one fixed-length signature, so the
    // two ratios are the same number.
    report.set(
        "index.lifecycle.rewrite_amp",
        stats.compact.rows_written as f64 / w.rows_added as f64,
    );
    let file_bytes = std::fs::metadata(&final_path).map_or(0, |m| m.len());
    report
        .set("index.container.space_amp", file_bytes as f64 / (n_live * SIGNATURE_LEN * 8) as f64);
    drop(w);
    drop(dir);
    report
}
