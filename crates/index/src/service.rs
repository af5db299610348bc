//! The serving frontend: one object that owns the write/read/compact
//! loop of a living index.
//!
//! Snapshot-safe readers and compaction give the index a lifecycle; this
//! module adds the piece that makes it a *service*: [`LocalIndexService`]
//! implements the [`IndexService`] trait (`create / add_batch / delete /
//! commit / query_paged / stats`) over an `IndexWriter` plus
//! `IndexReader` snapshots, with
//!
//! * **pipelined commits** — staged batches are signed by a thread pool
//!   and sealed in submission order (see [`crate::pipeline`]), so
//!   commit N+1 signs while commit N seals;
//! * a **background compactor** — a maintenance thread plans merges
//!   under the size-tiered policy, builds the merged segments *off* the
//!   writer lock, and swaps the manifest atomically under live readers
//!   (readers stay pinned to their snapshot generation). The file vacuum
//!   runs by garbage share, not after every merge: a pass rewrites the
//!   file once its reclaimable bytes reach half its live image, so the
//!   file stays within 1.5× its minimal image plus one pass's appends.
//!   The rewrite never waits for readers: a snapshot holds its segments
//!   in memory and never reads the file after open;
//! * **admission control** — a bounded in-flight commit queue and a
//!   bounded concurrent-query count, each admitting or shedding with a
//!   typed [`IndexError::Overloaded`] in one atomic step instead of
//!   queueing without bound;
//! * a [`ServiceStats`] metrics feed per request class — queue depth,
//!   shed counts and latency histograms for commits and queries, plus
//!   compaction and vacuum counters and the file's live and reclaimable
//!   bytes.
//!
//! Construction goes through [`IndexOptions`], the one builder of the
//! index stack. The serving parameters are constants: 64 in-flight
//! commits, 64 concurrent queries, 4 signer threads, a 10 ms compaction
//! interval, 8 retained snapshot generations and three commit attempts
//! backing off from 1 ms to at most 50 ms. Background compaction runs the
//! default size-tiered policy and pauses while the commit queue is full.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gas_chaos::{splitmix64, Storage};
use gas_core::indicator::SampleCollection;
use gas_obs::LatencyHistogram;

use crate::build::IndexConfig;
use crate::error::{IndexError, IndexResult};
use crate::lifecycle::{CommitSummary, Compactor, IndexReader, IndexWriter, VacuumReport};
use crate::pipeline::{CommitPipeline, CommitTicket};
use crate::query::{PageRequest, QueryEngine, QueryPage};

/// In-flight (submitted, not yet sealed) commits; a `commit()` beyond
/// them sheds with [`IndexError::Overloaded`], and background compaction
/// pauses while the queue is full.
const MAX_PENDING_COMMITS: usize = 64;
/// Concurrently served `query_paged` calls; one more sheds typed.
const MAX_CONCURRENT_QUERIES: usize = 64;
/// Signer pool size of the commit pipeline.
const SIGNER_THREADS: usize = 4;
/// How often the background compactor wakes for a maintenance pass.
const COMPACT_INTERVAL: Duration = Duration::from_millis(10);
/// Recent snapshot generations kept pinned for cursor resumption.
const SNAPSHOT_RETENTION: usize = 8;
/// [`LocalIndexService::commit_wait_retry`]'s attempts, first try included.
const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry.
const RETRY_BASE_DELAY: Duration = Duration::from_millis(1);
/// Backoff cap.
const RETRY_MAX_DELAY: Duration = Duration::from_millis(50);
/// Seed of the deterministic jitter stream.
const RETRY_JITTER_SEED: u64 = 0x6A17;

/// The backoff to sleep after failed attempt `attempt` (0-based):
/// `min(RETRY_MAX_DELAY, RETRY_BASE_DELAY · 2^attempt) · (0.5 + jitter/2)`,
/// where `jitter` is `splitmix64(RETRY_JITTER_SEED ^ attempt)` mapped to
/// `[0, 1)` — every run replays the same schedule.
fn retry_delay(attempt: u32) -> Duration {
    let capped = RETRY_BASE_DELAY.saturating_mul(1u32 << attempt.min(20)).min(RETRY_MAX_DELAY);
    let jitter =
        (splitmix64(RETRY_JITTER_SEED ^ attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
    capped.mul_f64(0.5 + jitter / 2.0)
}

/// The one construction surface of the index stack: signature scheme
/// and LSH parameters, plus whether a service runs its background
/// compactor. Admission bounds, the signer pool, the compaction policy
/// and interval, snapshot retention and the commit-retry schedule are
/// fixed (see the README's serving section).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexOptions {
    config: IndexConfig,
    auto_compact: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions { config: IndexConfig::default(), auto_compact: true }
    }
}

impl IndexOptions {
    /// Options at the default configuration, background compaction on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Options wrapping an existing [`IndexConfig`].
    pub fn from_config(config: IndexConfig) -> Self {
        IndexOptions { config, ..Self::default() }
    }

    /// The wrapped index configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Set the signature length (positions per MinHash signature).
    pub fn with_signature_len(mut self, signature_len: usize) -> Self {
        self.config = self.config.with_signature_len(signature_len);
        self
    }

    /// Set the signing seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config = self.config.with_seed(seed);
        self
    }

    /// Set the LSH target similarity threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.config = self.config.with_threshold(threshold);
        self
    }

    /// Set the signer kind (k-mins or one-permutation).
    pub fn with_signer(mut self, signer: gas_core::minhash::SignerKind) -> Self {
        self.config = self.config.with_signer(signer);
        self
    }

    /// Enable or disable the background compaction thread.
    pub fn with_auto_compact(mut self, auto_compact: bool) -> Self {
        self.auto_compact = auto_compact;
        self
    }

    /// A fresh, empty, in-memory [`IndexWriter`] under these options.
    pub fn open_writer(&self) -> IndexResult<IndexWriter> {
        IndexWriter::new_in_memory(&self.config)
    }

    /// A fresh [`IndexWriter`] backed by a new container file at `path`.
    pub fn create_writer_at(&self, path: impl AsRef<Path>) -> IndexResult<IndexWriter> {
        IndexWriter::new_at(path, &self.config)
    }

    /// Build an index over a whole collection in one shot: the snapshot
    /// of an in-memory writer's single
    /// [`commit_collection`](IndexWriter::commit_collection) — one
    /// segment, global ids the dense `0..n`, generation 1. To persist it,
    /// run the same commit on [`Self::create_writer_at`] and reopen with
    /// [`IndexReader::open`].
    pub fn build_index(&self, collection: &SampleCollection) -> IndexResult<IndexReader> {
        let mut writer = self.open_writer()?;
        writer.commit_collection(collection)?;
        Ok(writer.reader())
    }

    /// Start an in-memory [`LocalIndexService`] under these options.
    pub fn serve(&self) -> IndexResult<LocalIndexService> {
        LocalIndexService::create(*self)
    }

    /// Start a [`LocalIndexService`] over a fresh container file.
    pub fn serve_at(&self, path: impl AsRef<Path>) -> IndexResult<LocalIndexService> {
        Ok(LocalIndexService::from_writer(self.create_writer_at(path)?, *self))
    }

    /// Start a [`LocalIndexService`] over an existing index file.
    pub fn serve_open(&self, path: impl AsRef<Path>) -> IndexResult<LocalIndexService> {
        Ok(LocalIndexService::from_writer(IndexWriter::open(path)?, *self))
    }
}

/// Live counters of one request class; `pub(crate)` — the public view
/// is the [`RequestClassStats`] snapshot.
#[derive(Debug, Default)]
pub(crate) struct ClassMetrics {
    accepted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    latency: Mutex<LatencyHistogram>,
}

impl ClassMetrics {
    /// Admit a request if fewer than `bound` are in flight, in one
    /// atomic step: an admitted request occupies queue depth until
    /// `finish`; a refused one is counted as shed and holds nothing.
    fn try_admit(&self, bound: usize) -> bool {
        let admitted = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| (d < bound).then_some(d + 1));
        match admitted {
            Ok(previous) => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
                self.max_queue_depth.fetch_max(previous + 1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Finish an admitted request.
    pub(crate) fn finish(&self, latency: Duration, ok: bool) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.lock().expect("latency lock poisoned").record(latency);
    }

    fn depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> RequestClassStats {
        RequestClassStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            latency: self.latency.lock().expect("latency lock poisoned").clone(),
        }
    }
}

/// A snapshot of one request class's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestClassStats {
    /// Requests admitted past admission control.
    pub accepted: u64,
    /// Requests refused at the door (the in-flight bound was reached).
    pub shed: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that failed with an error.
    pub failed: u64,
    /// Requests currently in flight.
    pub queue_depth: usize,
    /// High-water mark of in-flight requests.
    pub max_queue_depth: usize,
    /// Latency histogram of finished requests.
    pub latency: LatencyHistogram,
}

/// Counters of the background compaction/vacuum loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Maintenance passes that applied a merge.
    pub passes: u64,
    /// Segment groups merged across all passes.
    pub groups_merged: u64,
    /// Segments replaced by merged ones.
    pub segments_compacted: u64,
    /// Tombstoned rows physically dropped.
    pub tombstones_purged: u64,
    /// Rows written into merged segments.
    pub rows_written: u64,
    /// Built merges discarded because the writer state moved underneath
    /// (another compaction claimed a member segment first).
    pub stale_passes: u64,
    /// Merges whose build or apply failed with an error.
    pub failed_passes: u64,
    /// Maintenance passes skipped because the commit queue was full
    /// (degraded mode: serving wins).
    pub paused_passes: u64,
    /// Vacuums that rewrote the backing file.
    pub vacuums_run: u64,
    /// Due vacuums whose rewrite failed with an error (the file is left
    /// as it was; the next pass retries while the vacuum stays due).
    pub vacuums_failed: u64,
    /// Bytes those vacuums reclaimed.
    pub vacuum_bytes_reclaimed: u64,
}

/// The [`IndexService::stats`] feed: per-class request counters plus
/// compaction state and the usual index shape figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Commit pipeline counters.
    pub commit: RequestClassStats,
    /// Paged-query counters.
    pub query: RequestClassStats,
    /// Background compaction/vacuum counters.
    pub compact: CompactionStats,
    /// Committed manifest generation at snapshot time.
    pub generation: u64,
    /// Live segments.
    pub segments: usize,
    /// Live samples.
    pub live_samples: usize,
    /// Bytes of the minimal image of the live state
    /// ([`IndexWriter::file_live_bytes`]; 0 in memory).
    pub file_live_bytes: u64,
    /// Bytes a vacuum would reclaim now
    /// ([`IndexWriter::file_reclaimable_bytes`]). A pass vacuums once
    /// this reaches half of `file_live_bytes`.
    pub file_reclaimable_bytes: u64,
}

impl ServiceStats {
    /// Fold these counters into a metrics snapshot under the shared
    /// `gas_*` namespace (see the README's observability table).
    pub fn fold_into(&self, snap: &mut gas_obs::MetricsSnapshot) {
        for (class, stats) in [("commit", &self.commit), ("query", &self.query)] {
            snap.set_counter(&format!("gas_serve_{class}_accepted_total"), stats.accepted);
            snap.set_counter(&format!("gas_serve_{class}_shed_total"), stats.shed);
            snap.set_counter(&format!("gas_serve_{class}_completed_total"), stats.completed);
            snap.set_counter(&format!("gas_serve_{class}_failed_total"), stats.failed);
            snap.set_gauge(&format!("gas_serve_{class}_queue_depth"), stats.queue_depth as i64);
            snap.set_gauge(
                &format!("gas_serve_{class}_queue_depth_max"),
                stats.max_queue_depth as i64,
            );
            snap.set_histogram(&format!("gas_serve_{class}_micros"), stats.latency.clone());
        }
        snap.set_counter("gas_compact_passes_total", self.compact.passes);
        snap.set_counter("gas_compact_groups_merged_total", self.compact.groups_merged);
        snap.set_counter("gas_compact_segments_compacted_total", self.compact.segments_compacted);
        snap.set_counter("gas_compact_tombstones_purged_total", self.compact.tombstones_purged);
        snap.set_counter("gas_compact_rows_written_total", self.compact.rows_written);
        snap.set_counter("gas_compact_stale_passes_total", self.compact.stale_passes);
        snap.set_counter("gas_compact_failed_passes_total", self.compact.failed_passes);
        snap.set_counter("gas_compact_paused_passes_total", self.compact.paused_passes);
        snap.set_counter("gas_compact_vacuums_run_total", self.compact.vacuums_run);
        snap.set_counter("gas_compact_vacuums_failed_total", self.compact.vacuums_failed);
        snap.set_counter(
            "gas_compact_vacuum_bytes_reclaimed_total",
            self.compact.vacuum_bytes_reclaimed,
        );
        snap.set_gauge("gas_index_generation", self.generation as i64);
        snap.set_gauge("gas_index_segments", self.segments as i64);
        snap.set_gauge("gas_index_live_samples", self.live_samples as i64);
        snap.set_gauge("gas_index_file_live_bytes", self.file_live_bytes as i64);
        snap.set_gauge("gas_index_file_reclaimable_bytes", self.file_reclaimable_bytes as i64);
    }
}

/// Per-cause counters of what a degraded query survived: each field is
/// how many times that transient condition was absorbed instead of
/// surfaced as an error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedCauses {
    /// Admission control shed the query; an empty page set stands in.
    pub overloaded: u64,
    /// The pagination cursor's generation was no longer pinned; the
    /// scan restarted from the first page of a fresh snapshot.
    pub stale_cursor: u64,
    /// A transient storage fault interrupted the query.
    pub storage: u64,
}

impl DegradedCauses {
    fn any(&self) -> bool {
        self.overloaded + self.stale_cursor + self.storage > 0
    }
}

/// The answer of [`LocalIndexService::query_paged_degraded`]: best-
/// effort pages plus an explicit flag saying whether they are the full
/// answer. `degraded == false` means the pages are exactly what
/// [`IndexService::query_paged`] would have returned.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedBatch {
    /// One page per query — possibly empty when the service absorbed a
    /// shed, never silently partial without `degraded` saying so.
    pub pages: Vec<QueryPage>,
    /// True when any transient condition was absorbed.
    pub degraded: bool,
    /// Which conditions were absorbed, per cause.
    pub causes: DegradedCauses,
}

/// The serving API over a living index: stage (`add_batch`/`delete`),
/// commit through the pipeline, read through pinned snapshots, observe
/// through `stats`. Implementations are `Sync` — one service value is
/// shared by writer and query threads.
pub trait IndexService: Send + Sync {
    /// Start a service under `options`.
    fn create(options: IndexOptions) -> IndexResult<Self>
    where
        Self: Sized;

    /// Stage a batch of samples; returns the assigned global id range.
    /// Staged rows are invisible to readers until a commit seals them.
    fn add_batch(&self, samples: Vec<(String, Vec<u64>)>) -> IndexResult<Range<u32>>;

    /// Stage the delete of a committed, live sample.
    fn delete(&self, id: u32) -> IndexResult<()>;

    /// Submit everything staged as one commit through the pipeline.
    /// Returns immediately with a [`CommitTicket`]; sheds with
    /// [`IndexError::Overloaded`] when the in-flight bound is reached.
    fn commit(&self) -> IndexResult<CommitTicket>;

    /// [`Self::commit`], blocking until the commit seals.
    fn commit_wait(&self) -> IndexResult<CommitSummary> {
        self.commit()?.wait()
    }

    /// Serve one page per query. A request without a cursor pins the
    /// current snapshot; a cursor resumes against its pinned generation
    /// (the service retains a bounded window of recent generations) or
    /// fails with a typed [`IndexError::StaleCursor`].
    fn query_paged(&self, queries: &[Vec<u64>], req: &PageRequest) -> IndexResult<Vec<QueryPage>>;

    /// An atomic snapshot of the current committed state, pinned to its
    /// generation for as long as the caller holds it.
    fn snapshot(&self) -> IndexReader;

    /// The metrics feed.
    fn stats(&self) -> ServiceStats;

    /// The unified observability snapshot: every metric registered in
    /// the process-global `gas-obs` registry (pipeline stage timings,
    /// compaction phases, dist byte counters, ...) with this service's
    /// [`ServiceStats`] folded in under the same `gas_*` namespace.
    /// Feed it to `gas_obs::to_prometheus` / `gas_obs::metrics_to_json`.
    fn telemetry(&self) -> gas_obs::MetricsSnapshot {
        let mut snap = gas_obs::snapshot();
        self.stats().fold_into(&mut snap);
        snap
    }
}

/// State shared between the service handle, the pipeline's sealer and
/// the background compactor.
struct ServiceShared {
    writer: Arc<Mutex<IndexWriter>>,
    commit_metrics: Arc<ClassMetrics>,
    query_metrics: Arc<ClassMetrics>,
    compact_stats: Mutex<CompactionStats>,
    /// Recent generations kept pinned for cursor resumption,
    /// generation → snapshot. Bounded by [`SNAPSHOT_RETENTION`];
    /// the vacuum step may additionally evict pre-swap generations.
    pinned: Mutex<BTreeMap<u64, IndexReader>>,
    /// Generation of the newest compaction swap the file has not been
    /// vacuumed since: the pinned cache releases older generations.
    swap_since_vacuum: Mutex<Option<u64>>,
}

impl ServiceShared {
    /// Take a snapshot, pin its generation for cursor resumption, and
    /// evict pinned generations beyond the retention window.
    fn snapshot(&self) -> IndexReader {
        let reader = self.writer.lock().expect("writer lock poisoned").reader();
        let mut pinned = self.pinned.lock().expect("pinned lock poisoned");
        pinned.insert(reader.generation(), reader.clone());
        while pinned.len() > SNAPSHOT_RETENTION {
            let oldest = *pinned.keys().next().expect("non-empty map");
            pinned.remove(&oldest);
        }
        reader
    }

    /// The pinned snapshot of `generation`, or a typed stale-cursor
    /// error naming the oldest generation still answerable.
    fn pinned_snapshot(&self, generation: u64) -> IndexResult<IndexReader> {
        let pinned = self.pinned.lock().expect("pinned lock poisoned");
        if let Some(reader) = pinned.get(&generation) {
            return Ok(reader.clone());
        }
        let oldest = pinned
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.writer.lock().expect("writer lock poisoned").generation());
        Err(IndexError::StaleCursor { cursor_generation: generation, snapshot_generation: oldest })
    }
}

/// The in-process [`IndexService`]: a pipelined writer, a background
/// compactor and bounded admission, behind one `Sync` handle.
pub struct LocalIndexService {
    shared: Arc<ServiceShared>,
    pipeline: Mutex<CommitPipeline>,
    compactor_stop: Arc<AtomicBool>,
    compactor_thread: Option<JoinHandle<()>>,
}

impl LocalIndexService {
    /// Start a service over an already-constructed writer (how the
    /// file-backed entry points [`IndexOptions::serve_at`] and
    /// [`IndexOptions::serve_open`] come in).
    pub fn from_writer(writer: IndexWriter, options: IndexOptions) -> Self {
        let scheme = *writer.scheme();
        let writer = Arc::new(Mutex::new(writer));
        let commit_metrics = Arc::new(ClassMetrics::default());
        let pipeline = CommitPipeline::start(
            Arc::clone(&writer),
            scheme,
            SIGNER_THREADS,
            Arc::clone(&commit_metrics),
        );
        let shared = Arc::new(ServiceShared {
            writer,
            commit_metrics,
            query_metrics: Arc::new(ClassMetrics::default()),
            compact_stats: Mutex::new(CompactionStats::default()),
            pinned: Mutex::new(BTreeMap::new()),
            swap_since_vacuum: Mutex::new(None),
        });
        let compactor_stop = Arc::new(AtomicBool::new(false));
        let compactor_thread = if options.auto_compact {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&compactor_stop);
            Some(std::thread::spawn(move || compactor_loop(&shared, &stop)))
        } else {
            None
        };
        LocalIndexService {
            shared,
            pipeline: Mutex::new(pipeline),
            compactor_stop,
            compactor_thread,
        }
    }

    /// Run one maintenance pass (plan → off-lock merge → swap → vacuum
    /// when due) synchronously on the calling thread — what the
    /// background thread does every interval. Useful with
    /// `auto_compact(false)` and in tests that need determinism.
    pub fn maintain(&self) {
        maintenance_pass(&self.shared);
    }

    /// Swap the writer's storage backend. The default is the real
    /// filesystem; chaos drills install a
    /// [`gas_chaos::ChaosStorage`] here to inject faults under a live
    /// service.
    pub fn set_storage(&self, storage: Arc<dyn Storage>) {
        self.shared.writer.lock().expect("writer lock poisoned").set_storage(storage);
    }

    /// [`IndexService::commit_wait`] with retries: transient failures —
    /// overload sheds and storage I/O faults — are retried, three
    /// attempts in all, under exponential backoff from 1 ms capped at
    /// 50 ms with deterministic jitter; anything else returns
    /// immediately. When the budget runs out the last transient error is
    /// wrapped in [`IndexError::RetryExhausted`].
    ///
    /// Safe to retry by construction: a door shed leaves the staged
    /// batch untouched, and a failed persist leaves the commit applied
    /// in memory with the file marked dirty — the writer-level commit
    /// issued before each retry re-persists that state (an empty commit
    /// heals, it never re-stages).
    pub fn commit_wait_retry(&self) -> IndexResult<CommitSummary> {
        let mut last: Option<IndexError> = None;
        for attempt in 0..RETRY_ATTEMPTS {
            if attempt > 0 {
                let delay = retry_delay(attempt - 1);
                gas_obs::counter("gas_retry_backoff_micros_total").add(delay.as_micros() as u64);
                std::thread::sleep(delay);
            }
            gas_obs::counter("gas_retry_attempts_total").inc();
            // A dirty writer with nothing staged means a previous
            // persist failed mid-commit; heal directly at the writer —
            // the service's empty-commit fast path would skip the
            // re-persist. Checked and committed under one lock hold so
            // a concurrent add_batch can't slip a batch past the
            // pipeline's ordering.
            let healed = {
                let mut writer = self.shared.writer.lock().expect("writer lock poisoned");
                if writer.staged_samples() == 0
                    && writer.staged_deletes() == 0
                    && writer.needs_persist()
                {
                    Some(writer.commit())
                } else {
                    None
                }
            };
            let result = match healed {
                Some(result) => result,
                None => self.commit().and_then(|ticket| ticket.wait()),
            };
            match result {
                Ok(summary) => {
                    if attempt > 0 {
                        gas_obs::counter("gas_retry_success_total").inc();
                    }
                    return Ok(summary);
                }
                Err(e @ (IndexError::Io(_) | IndexError::Overloaded { .. })) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        gas_obs::counter("gas_retry_exhausted_total").inc();
        Err(IndexError::RetryExhausted {
            attempts: RETRY_ATTEMPTS,
            last: last.map(|e| e.to_string()).unwrap_or_else(|| "no error recorded".into()),
        })
    }

    /// [`IndexService::query_paged`] that degrades instead of failing
    /// on transient conditions: an overload shed yields an empty page
    /// set, a stale cursor restarts the scan from the first page of a
    /// fresh snapshot, a transient storage fault yields empty pages —
    /// each flagged in [`DegradedBatch::causes`] and counted under
    /// `gas_degraded_*`. Caller mistakes (malformed queries, signer
    /// mismatches) still surface as errors.
    pub fn query_paged_degraded(
        &self,
        queries: &[Vec<u64>],
        req: &PageRequest,
    ) -> IndexResult<DegradedBatch> {
        let mut causes = DegradedCauses::default();
        let pages = match self.query_paged(queries, req) {
            Ok(pages) => pages,
            Err(IndexError::StaleCursor { .. }) => {
                causes.stale_cursor += 1;
                gas_obs::counter("gas_degraded_stale_cursor_total").inc();
                // Restart against a fresh snapshot; a failure of the
                // restarted scan degrades like a first-try failure.
                let restarted = PageRequest { cursor: None, ..*req };
                match self.query_paged(queries, &restarted) {
                    Ok(pages) => pages,
                    Err(IndexError::Overloaded { .. }) => {
                        causes.overloaded += 1;
                        gas_obs::counter("gas_degraded_overloaded_total").inc();
                        Vec::new()
                    }
                    Err(IndexError::Io(_)) => {
                        causes.storage += 1;
                        gas_obs::counter("gas_degraded_storage_total").inc();
                        Vec::new()
                    }
                    Err(e) => return Err(e),
                }
            }
            Err(IndexError::Overloaded { .. }) => {
                causes.overloaded += 1;
                gas_obs::counter("gas_degraded_overloaded_total").inc();
                Vec::new()
            }
            Err(IndexError::Io(_)) => {
                causes.storage += 1;
                gas_obs::counter("gas_degraded_storage_total").inc();
                Vec::new()
            }
            Err(e) => return Err(e),
        };
        let degraded = causes.any();
        if degraded {
            gas_obs::counter("gas_degraded_queries_total").inc();
        }
        Ok(DegradedBatch { pages, degraded, causes })
    }
}

impl Drop for LocalIndexService {
    fn drop(&mut self) {
        self.compactor_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.compactor_thread.take() {
            let _ = handle.join();
        }
        // The pipeline mutex field drops after this, closing the job
        // channel and joining signer + sealer threads.
    }
}

impl IndexService for LocalIndexService {
    fn create(options: IndexOptions) -> IndexResult<Self> {
        Ok(LocalIndexService::from_writer(options.open_writer()?, options))
    }

    fn add_batch(&self, samples: Vec<(String, Vec<u64>)>) -> IndexResult<Range<u32>> {
        let mut writer = self.shared.writer.lock().expect("writer lock poisoned");
        let first = writer.id_bound();
        for (name, values) in samples {
            writer.add(name, values)?;
        }
        Ok(first..writer.id_bound())
    }

    fn delete(&self, id: u32) -> IndexResult<()> {
        self.shared.writer.lock().expect("writer lock poisoned").delete(id)
    }

    fn commit(&self) -> IndexResult<CommitTicket> {
        // The writer lock is held across take + submit so pipeline
        // sequence order equals id-assignment order — the sealer relies
        // on it to keep generations and the id high-water mark aligned.
        let mut writer = self.shared.writer.lock().expect("writer lock poisoned");
        if writer.staged_samples() == 0 && writer.staged_deletes() == 0 {
            return Ok(CommitTicket::ready(Ok(CommitSummary {
                generation: writer.generation(),
                sealed_segment: None,
                rows_added: 0,
                deletes_applied: 0,
            })));
        }
        if !self.shared.commit_metrics.try_admit(MAX_PENDING_COMMITS) {
            // Refused at the door: nothing was taken, the staged batch
            // stays intact for a later commit.
            return Err(IndexError::Overloaded {
                class: "commit".into(),
                context: format!("{MAX_PENDING_COMMITS} commits already in flight"),
            });
        }
        let batch = writer.take_staged();
        Ok(self.pipeline.lock().expect("pipeline lock poisoned").submit(batch))
    }

    fn query_paged(&self, queries: &[Vec<u64>], req: &PageRequest) -> IndexResult<Vec<QueryPage>> {
        let metrics = &self.shared.query_metrics;
        if !metrics.try_admit(MAX_CONCURRENT_QUERIES) {
            return Err(IndexError::Overloaded {
                class: "query".into(),
                context: format!("{MAX_CONCURRENT_QUERIES} queries already in flight"),
            });
        }
        let started = Instant::now();
        let result = (|| {
            let reader = match req.cursor {
                Some(cursor) => self.shared.pinned_snapshot(cursor.generation())?,
                None => self.shared.snapshot(),
            };
            QueryEngine::snapshot(reader).query_page_batch(queries, req)
        })();
        metrics.finish(started.elapsed(), result.is_ok());
        result
    }

    fn snapshot(&self) -> IndexReader {
        self.shared.snapshot()
    }

    fn stats(&self) -> ServiceStats {
        let (generation, segments, live_samples, file_live_bytes, file_reclaimable_bytes) = {
            let writer = self.shared.writer.lock().expect("writer lock poisoned");
            (
                writer.generation(),
                writer.segment_stats().len(),
                writer.live_samples(),
                writer.file_live_bytes(),
                writer.file_reclaimable_bytes(),
            )
        };
        ServiceStats {
            commit: self.shared.commit_metrics.snapshot(),
            query: self.shared.query_metrics.snapshot(),
            compact: *self.shared.compact_stats.lock().expect("compact stats lock poisoned"),
            generation,
            segments,
            live_samples,
            file_live_bytes,
            file_reclaimable_bytes,
        }
    }
}

/// The background maintenance thread: one pass per interval until the
/// service drops.
fn compactor_loop(shared: &ServiceShared, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        maintenance_pass(shared);
        // Sleep in small slices so a dropping service never waits a
        // full interval for the join.
        let mut slept = Duration::ZERO;
        while slept < COMPACT_INTERVAL && !stop.load(Ordering::Relaxed) {
            let slice = (COMPACT_INTERVAL - slept).min(Duration::from_millis(2));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One maintenance pass: plan and begin a compaction under the writer
/// lock, build the merged segments *off* the lock (serving continues),
/// swap atomically, then evaluate the vacuum rule — every pass, merge or
/// not — and run or skip the file vacuum.
fn maintenance_pass(shared: &ServiceShared) {
    // Degraded mode: while the commit queue is full the maintenance
    // thread backs off entirely — no compaction, no vacuum — so the
    // serving path never queues behind a merge for the writer lock.
    if shared.commit_metrics.depth() >= MAX_PENDING_COMMITS {
        bump(shared, |s| s.paused_passes += 1);
        gas_obs::counter("gas_compact_paused_passes_total").inc();
        return;
    }
    let begun = {
        let _plan_span = gas_obs::span("compact", "plan");
        let mut writer = shared.writer.lock().expect("writer lock poisoned");
        let plan = Compactor::default().plan(&writer.segment_stats());
        writer.begin_compaction(plan)
    };
    match begun {
        Ok(None) => {}
        Err(_) => bump(shared, |s| s.failed_passes += 1),
        Ok(Some(task)) => {
            let built_result = {
                let _build_span = gas_obs::span("compact", "build");
                task.build()
            };
            match built_result {
                Err(_) => bump(shared, |s| s.failed_passes += 1),
                Ok(built) => {
                    let applied = {
                        let _swap_span = gas_obs::span("compact", "swap");
                        shared.writer.lock().expect("writer lock poisoned").apply_compaction(built)
                    };
                    match applied {
                        Err(_) => bump(shared, |s| s.failed_passes += 1),
                        Ok(None) => bump(shared, |s| s.stale_passes += 1),
                        Ok(Some(summary)) => {
                            bump(shared, |s| {
                                s.passes += 1;
                                s.groups_merged += summary.groups_merged as u64;
                                s.segments_compacted += (summary.segments_before
                                    - summary.segments_after.min(summary.segments_before))
                                    as u64;
                                s.tombstones_purged += summary.tombstones_purged as u64;
                                s.rows_written += summary.rows_written as u64;
                            });
                            *shared.swap_since_vacuum.lock().expect("vacuum lock poisoned") =
                                Some(summary.generation);
                        }
                    }
                }
            }
        }
    }
    vacuum_if_due(shared);
}

/// The vacuum rule: a pass rewrites the file once its reclaimable bytes
/// reach `1 / VACUUM_LIVE_PER_DEAD` of the live image. At 2, a rewrite
/// of L live bytes reclaims at least L/2 — at most two bytes written per
/// byte reclaimed — and the file stays within 1.5× its minimal image
/// plus one pass's appends, which bounds what an open must scan. A
/// smaller share rewrites more per byte reclaimed; a larger one lets
/// the file and its open scan grow. Log-structured stores clean by the
/// same garbage-share trade (Rosenblum & Ousterhout, SOSP 1991).
const VACUUM_LIVE_PER_DEAD: u64 = 2;

/// Whether a file of `live` minimal-image bytes and `reclaimable` dead
/// ones is due for a vacuum.
fn vacuum_due(live: u64, reclaimable: u64) -> bool {
    reclaimable > 0 && reclaimable.saturating_mul(VACUUM_LIVE_PER_DEAD) >= live
}

/// Vacuum by rule. After a swap the service's own pinned-snapshot cache
/// releases its pre-swap generations (their cursors turn stale, typed).
/// A pass whose file is not due counts nothing; a due one rewrites the
/// file. Readers never wait for it: a snapshot holds its segments in
/// memory and never reads the file after open, and the rewrite replaces
/// the file atomically. A failed rewrite leaves the file as it was and
/// is counted; the next pass retries while the file stays due.
fn vacuum_if_due(shared: &ServiceShared) {
    let swap_generation = *shared.swap_since_vacuum.lock().expect("vacuum lock poisoned");
    if let Some(swap_generation) = swap_generation {
        let mut pinned = shared.pinned.lock().expect("pinned lock poisoned");
        pinned.retain(|&generation, _| generation >= swap_generation);
    }
    let due = {
        let writer = shared.writer.lock().expect("writer lock poisoned");
        vacuum_due(writer.file_live_bytes(), writer.file_reclaimable_bytes())
    };
    if !due {
        return;
    }
    let report: IndexResult<VacuumReport> = {
        let _vacuum_span = gas_obs::span("compact", "vacuum");
        shared.writer.lock().expect("writer lock poisoned").vacuum()
    };
    match report {
        Ok(report) => {
            *shared.swap_since_vacuum.lock().expect("vacuum lock poisoned") = None;
            if report.rewritten {
                bump(shared, |s| {
                    s.vacuums_run += 1;
                    s.vacuum_bytes_reclaimed += report.bytes_reclaimed;
                });
            }
        }
        Err(_) => bump(shared, |s| s.vacuums_failed += 1),
    }
}

fn bump(shared: &ServiceShared, f: impl FnOnce(&mut CompactionStats)) {
    f(&mut shared.compact_stats.lock().expect("compact stats lock poisoned"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOptions;

    fn config() -> IndexConfig {
        IndexConfig::default().with_signature_len(64).with_threshold(0.5)
    }

    fn family(start: u64, len: u64) -> Vec<u64> {
        (start..start + len).collect()
    }

    /// `count` samples in two overlapping families, as an add_batch
    /// payload with names unique under `tag`.
    fn batch(tag: &str, count: usize, salt: u64) -> Vec<(String, Vec<u64>)> {
        (0..count)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 10_000 };
                (format!("{tag}_{i}"), family(base + salt * 7 + i as u64 * 13, 400))
            })
            .collect()
    }

    fn answers(reader: IndexReader, probe: &[u64]) -> Vec<crate::query::Neighbor> {
        QueryEngine::snapshot(reader)
            .query(probe, &QueryOptions { top_k: 8, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn pipelined_commits_match_serial_and_order_generations() {
        let opts = IndexOptions::from_config(config()).with_auto_compact(false);
        let mut writer = opts.open_writer().unwrap();
        let service = opts.serve().unwrap();
        let base_generation = service.stats().generation;

        let mut tickets = Vec::new();
        for b in 0..5u64 {
            for (name, values) in batch("b", 12, b) {
                writer.add(name.clone(), values.clone()).unwrap();
                service.add_batch(vec![(name, values)]).unwrap();
            }
            writer.commit().unwrap();
            tickets.push(service.commit().unwrap());
        }
        let mut last_generation = base_generation;
        for ticket in tickets {
            let summary = ticket.wait().unwrap();
            assert!(summary.generation > last_generation, "generations strictly ordered");
            last_generation = summary.generation;
        }

        let probe = family(0, 400);
        assert_eq!(
            answers(service.snapshot(), &probe),
            answers(writer.reader(), &probe),
            "pipelined commits must answer bit-identically to serial commits"
        );
        let stats = service.stats();
        assert_eq!(stats.commit.completed, 5);
        assert_eq!(stats.commit.shed, 0);
        assert!(stats.commit.latency.count() == 5);
    }

    #[test]
    fn empty_commit_resolves_immediately_without_a_generation_bump() {
        let service = IndexOptions::from_config(config()).serve().unwrap();
        let before = service.stats().generation;
        let summary = service.commit_wait().unwrap();
        assert_eq!(summary.rows_added, 0);
        assert_eq!(summary.generation, before);
        assert_eq!(service.stats().commit.accepted, 0, "empty commits never enter the pipeline");
    }

    /// Occupy `n` admission slots of a class bounded at `bound`, as
    /// in-flight requests do.
    fn hold_slots(metrics: &ClassMetrics, bound: usize, n: usize) {
        for _ in 0..n {
            assert!(metrics.try_admit(bound));
        }
    }

    /// Release `n` held admission slots.
    fn release_slots(metrics: &ClassMetrics, n: usize) {
        for _ in 0..n {
            metrics.finish(Duration::ZERO, true);
        }
    }

    #[test]
    fn commit_queue_bound_sheds_at_the_door_and_keeps_the_batch_staged() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        hold_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS, MAX_PENDING_COMMITS);
        service.add_batch(batch("second", 2, 1)).unwrap();
        let err = service.commit().unwrap_err();
        assert!(matches!(err, IndexError::Overloaded { ref class, .. } if class == "commit"));
        assert_eq!(service.shared.writer.lock().unwrap().staged_samples(), 2);
        assert_eq!(service.stats().commit.shed, 1);
        release_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS);
        // Nothing was lost: the refused batch is still staged and the
        // next commit seals it.
        let summary = service.commit_wait().unwrap();
        assert_eq!(summary.rows_added, 2);
        assert_eq!(service.stats().commit.shed, 1);
    }

    #[test]
    fn admission_is_one_atomic_step_under_contention() {
        let metrics = Arc::new(ClassMetrics::default());
        let gate = Arc::new(std::sync::Barrier::new(8));
        let admitted: usize = (0..8)
            .map(|_| {
                let (metrics, gate) = (Arc::clone(&metrics), Arc::clone(&gate));
                std::thread::spawn(move || {
                    gate.wait();
                    metrics.try_admit(1)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| usize::from(t.join().unwrap()))
            .sum();
        let stats = metrics.snapshot();
        assert_eq!(admitted, 1, "a bound of one admits exactly one racer");
        assert_eq!((stats.accepted, stats.shed), (1, 7));
        assert_eq!((stats.queue_depth, stats.max_queue_depth), (1, 1));
    }

    #[test]
    fn a_due_vacuum_runs_in_the_swap_pass_under_a_live_pre_swap_reader() {
        let path = service_path("swapvac");
        // auto_compact off: maintenance passes are driven explicitly so
        // every phase of the swap is observable deterministically.
        let service =
            IndexOptions::from_config(config()).with_auto_compact(false).serve_at(&path).unwrap();
        for b in 0..5u64 {
            service.add_batch(batch("seg", 8, b)).unwrap();
            service.commit_wait().unwrap();
        }
        service.delete(1).unwrap();
        service.delete(9).unwrap();
        service.commit_wait().unwrap();

        let probe = family(0, 400);
        let pinned = service.snapshot();
        let pinned_generation = pinned.generation();
        let before = answers(pinned.clone(), &probe);

        service.maintain();
        let stats = service.stats();
        assert!(stats.compact.passes >= 1, "the size-tiered plan must fire on 5 equal segments");
        assert!(stats.compact.tombstones_purged >= 2);
        assert_eq!(stats.compact.vacuums_run, 1, "a live pre-swap reader never holds the rewrite");
        assert!(stats.compact.vacuum_bytes_reclaimed > 0);
        assert!(stats.generation > pinned_generation, "the swap bumped the generation");
        assert!(stats.segments < 5);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), stats.file_live_bytes);

        // The pre-swap reader never reads the file after open: it still
        // answers from its pinned snapshot, bit-identically, and the
        // rewritten file reopens to what a fresh snapshot answers.
        assert_eq!(answers(pinned.clone(), &probe), before);
        assert_eq!(pinned.generation(), pinned_generation);
        let fresh = answers(service.snapshot(), &probe);
        assert_eq!(fresh, before, "merges never change answers");
        assert_eq!(answers(IndexReader::open(&path).unwrap(), &probe), fresh);
        drop(service);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_vacuum_is_a_true_noop() {
        let dir = std::env::temp_dir().join(format!("gas_svc_vacuum_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idle.gas");
        let _ = std::fs::remove_file(&path);
        let opts = IndexOptions::from_config(config());
        let mut writer = opts.create_writer_at(&path).unwrap();
        for (name, values) in batch("v", 4, 0) {
            writer.add(name, values).unwrap();
        }
        writer.commit().unwrap();

        // First vacuum may rewrite (the pre-commit manifest block is
        // dead); afterwards the file is a minimal image.
        writer.vacuum().unwrap();
        let generation = writer.generation();
        let bytes = std::fs::read(&path).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();

        let report = writer.vacuum().unwrap();
        assert_eq!(report, VacuumReport { bytes_reclaimed: 0, rewritten: false });
        assert_eq!(writer.generation(), generation, "idle vacuum must not bump the generation");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "idle vacuum must not touch the file");
        assert_eq!(
            std::fs::metadata(&path).unwrap().modified().unwrap(),
            mtime,
            "idle vacuum must not churn mtime"
        );

        // In-memory writers have no file: vacuum is always the no-op.
        let mut mem = opts.open_writer().unwrap();
        mem.add("a".to_string(), family(0, 50)).unwrap();
        mem.commit().unwrap();
        assert_eq!(mem.vacuum().unwrap(), VacuumReport::default());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cursors_resume_within_retention_and_go_stale_typed_beyond_it() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        service.add_batch(batch("page", 12, 0)).unwrap();
        service.commit_wait().unwrap();

        let probe = family(0, 400);
        let req = PageRequest::new(3);
        let first = service.query_paged(std::slice::from_ref(&probe), &req).unwrap();
        let cursor = first[0].next_cursor.expect("more than one page");

        // Same generation: the cursor resumes and pages tile.
        let second =
            service.query_paged(std::slice::from_ref(&probe), &req.with_cursor(cursor)).unwrap();
        assert!(!second[0].hits.is_empty());
        assert_eq!(first[0].total_candidates, second[0].total_candidates);

        // SNAPSHOT_RETENTION + 1 newer pinned generations evict the
        // cursor's: it fails typed instead of mixing rankings.
        pin_newer_generations(&service, SNAPSHOT_RETENTION + 1);
        let err = service
            .query_paged(std::slice::from_ref(&probe), &req.with_cursor(cursor))
            .unwrap_err();
        assert!(matches!(err, IndexError::StaleCursor { .. }));
        let stats = service.stats();
        assert!(stats.query.failed >= 1);
        assert!(stats.query.accepted >= 4);
    }

    /// Commit and pin `n` newer generations, one fresh scan each.
    fn pin_newer_generations(service: &LocalIndexService, n: usize) {
        for salt in 1..=n as u64 {
            service.add_batch(batch("later", 2, salt)).unwrap();
            service.commit_wait().unwrap();
            service.query_paged(&[family(0, 400)], &PageRequest::new(3)).unwrap();
        }
    }

    #[test]
    fn service_pages_tile_the_one_shot_ranking() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        service.add_batch(batch("tile", 10, 0)).unwrap();
        service.commit_wait().unwrap();
        let probe = family(0, 400);

        let all = service
            .query_paged(std::slice::from_ref(&probe), &PageRequest::new(usize::MAX >> 1))
            .unwrap();
        let mut tiled = Vec::new();
        let mut req = PageRequest::new(2);
        loop {
            let page = service.query_paged(std::slice::from_ref(&probe), &req).unwrap();
            tiled.extend(page[0].hits.clone());
            match page[0].next_cursor {
                Some(next) => req = PageRequest::new(2).with_cursor(next),
                None => break,
            }
        }
        assert_eq!(tiled, all[0].hits, "pages must tile the one-shot ranking exactly");
    }

    #[test]
    fn query_concurrency_bound_sheds_typed() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        service.add_batch(batch("q", 4, 0)).unwrap();
        service.commit_wait().unwrap();
        // Hold all but one query slot; two threads hammer the last one.
        // Whichever loses the race sheds, so the class-level shed counter
        // must move. Every non-shed answer must still be a real answer.
        let queries = &service.shared.query_metrics;
        hold_slots(queries, MAX_CONCURRENT_QUERIES, MAX_CONCURRENT_QUERIES - 1);
        let service = Arc::new(service);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let worker = |service: Arc<LocalIndexService>, gate: Arc<std::sync::Barrier>| {
            std::thread::spawn(move || {
                gate.wait();
                for _ in 0..2_000 {
                    if service.stats().query.shed >= 1 {
                        break;
                    }
                    match service.query_paged(&[family(0, 400)], &PageRequest::new(4)) {
                        Ok(pages) => assert!(!pages[0].hits.is_empty()),
                        Err(IndexError::Overloaded { ref class, .. }) => {
                            assert_eq!(class, "query")
                        }
                        Err(other) => panic!("unexpected error under contention: {other}"),
                    }
                }
            })
        };
        let a = worker(Arc::clone(&service), Arc::clone(&gate));
        let b = worker(Arc::clone(&service), Arc::clone(&gate));
        a.join().unwrap();
        b.join().unwrap();
        assert!(
            service.stats().query.shed >= 1,
            "two threads racing one query slot must shed at least once"
        );
    }

    #[test]
    fn auto_compactor_thread_compacts_without_blocking_serving() {
        let service = IndexOptions::from_config(config()).serve().unwrap();
        let probe = family(0, 400);
        let mut reference = None;
        for b in 0..6u64 {
            service.add_batch(batch("live", 6, b)).unwrap();
            service.commit_wait().unwrap();
            let got =
                service.query_paged(std::slice::from_ref(&probe), &PageRequest::new(64)).unwrap();
            if b == 5 {
                reference = Some(got);
            }
        }
        // Wait (bounded) for the background thread to land a pass.
        for _ in 0..500 {
            if service.stats().compact.passes >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = service.stats();
        assert!(stats.compact.passes >= 1, "the background compactor never fired");
        assert!(stats.segments < 6);
        let after =
            service.query_paged(std::slice::from_ref(&probe), &PageRequest::new(64)).unwrap();
        assert_eq!(
            after[0].hits,
            reference.unwrap()[0].hits,
            "background compaction must never change answers"
        );
    }

    // ---- chaos drills: retry, degraded serving, compaction pause ----

    fn service_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gas_service_{tag}_{}_{n}.gidx", std::process::id()))
    }

    #[test]
    fn commit_wait_retry_heals_a_one_shot_storage_fault() {
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = service_path("retryheal");
        let service =
            IndexOptions::from_config(config()).with_auto_compact(false).serve_at(&path).unwrap();
        service.add_batch(batch("a", 6, 0)).unwrap();
        service.set_storage(Arc::new(ChaosStorage::over_fs(
            FaultPlan::seeded(3, 0).script(0, FaultKind::TornWrite),
        )));
        // Attempt 1 tears the persist; the retry's writer-level commit
        // re-persists the in-memory state (the scripted fault is spent).
        let summary = service.commit_wait_retry().expect("one torn write is survivable");
        assert!(summary.generation >= 1);
        assert_eq!(service.stats().live_samples, 6);
        drop(service);
        // The healed file reopens at the full state.
        let reader = IndexReader::open(&path).unwrap();
        assert_eq!(reader.n_live(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_wait_retry_exhausts_typed_under_persistent_faults() {
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = service_path("retryout");
        let service =
            IndexOptions::from_config(config()).with_auto_compact(false).serve_at(&path).unwrap();
        service.add_batch(batch("b", 4, 0)).unwrap();
        // Every storage op faults: the budget must run out, typed.
        service.set_storage(Arc::new(ChaosStorage::over_fs(
            FaultPlan::seeded(5, 1000).with_kinds(&[FaultKind::IoError]),
        )));
        let err = service.commit_wait_retry().unwrap_err();
        match err {
            IndexError::RetryExhausted { attempts, last } => {
                assert_eq!(attempts, RETRY_ATTEMPTS);
                assert!(!last.is_empty());
            }
            other => panic!("expected RetryExhausted, got {other}"),
        }
        // Clearing the fault heals: the commit is already applied in
        // memory, the next retry loop persists it.
        service.set_storage(Arc::new(gas_chaos::RealFs));
        let summary = service.commit_wait_retry().unwrap();
        assert_eq!(summary.deletes_applied, 0);
        assert_eq!(service.stats().live_samples, 4);
        drop(service);
        assert_eq!(IndexReader::open(&path).unwrap().n_live(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_vacuum_is_counted_and_the_next_due_pass_retries_it() {
        use gas_chaos::{ChaosStorage, FaultKind, FaultPlan};
        let path = service_path("vacfail");
        let service =
            IndexOptions::from_config(config()).with_auto_compact(false).serve_at(&path).unwrap();
        for b in 0..4u64 {
            service.add_batch(batch("v", 8, b)).unwrap();
            service.commit_wait().unwrap();
        }
        service.delete(3).unwrap();
        service.commit_wait().unwrap();
        let probe = family(0, 400);
        let want = answers(service.snapshot(), &probe);

        // Op 0 is the merge's append, op 1 the vacuum's replace.
        let chaos =
            Arc::new(ChaosStorage::over_fs(FaultPlan::seeded(4, 0).script(1, FaultKind::IoError)));
        service.set_storage(chaos.clone());
        service.maintain();
        assert_eq!(chaos.ops_seen(), 2, "the pass appended the merge, then tried the rewrite");
        let stats = service.stats();
        assert_eq!(stats.compact.passes, 1);
        assert_eq!((stats.compact.vacuums_run, stats.compact.vacuums_failed), (0, 1));
        assert!(vacuum_due(stats.file_live_bytes, stats.file_reclaimable_bytes));
        // The failed rewrite left the file intact at the merged generation.
        let reopened = IndexReader::open(&path).unwrap();
        assert_eq!(reopened.generation(), stats.generation);
        assert_eq!(answers(reopened, &probe), want);

        // Healed storage: the next pass has no merge to run but the file
        // is still due, so it completes the rewrite.
        service.set_storage(Arc::new(gas_chaos::RealFs));
        service.maintain();
        let stats = service.stats();
        assert_eq!(stats.compact.passes, 1);
        assert_eq!((stats.compact.vacuums_run, stats.compact.vacuums_failed), (1, 1));
        assert_eq!(stats.file_reclaimable_bytes, 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), stats.file_live_bytes);
        assert_eq!(answers(IndexReader::open(&path).unwrap(), &probe), want);

        // A pass that is not due counts nothing and leaves the file be.
        service.add_batch(batch("w", 2, 9)).unwrap();
        service.commit_wait().unwrap();
        let before = service.stats();
        assert!(before.file_reclaimable_bytes > 0);
        assert!(!vacuum_due(before.file_live_bytes, before.file_reclaimable_bytes));
        let len = std::fs::metadata(&path).unwrap().len();
        service.maintain();
        let after = service.stats();
        assert_eq!(after.compact, before.compact);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        drop(service);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_vacuum_rule_needs_dead_bytes_worth_half_the_live_image() {
        assert!(!vacuum_due(0, 0), "an in-memory index is never due");
        assert!(!vacuum_due(1_000, 0));
        assert!(!vacuum_due(1_000, 499));
        assert!(vacuum_due(1_000, 500));
        assert!(vacuum_due(1_000, u64::MAX), "no overflow at the extremes");
    }

    #[test]
    fn degraded_queries_absorb_overload_with_an_explicit_flag() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        service.add_batch(batch("d", 4, 0)).unwrap();
        service.commit_wait().unwrap();
        let probe = family(0, 400);

        // Unpressured: the degraded wrapper is a transparent pass-through.
        let calm = service
            .query_paged_degraded(std::slice::from_ref(&probe), &PageRequest::new(4))
            .unwrap();
        assert!(!calm.degraded);
        assert!(!calm.pages[0].hits.is_empty());

        // Occupy every query slot: the next query sheds, and the
        // degraded wrapper turns that into empty pages + the flag.
        let queries = &service.shared.query_metrics;
        hold_slots(queries, MAX_CONCURRENT_QUERIES, MAX_CONCURRENT_QUERIES);
        let shed = service
            .query_paged_degraded(std::slice::from_ref(&probe), &PageRequest::new(4))
            .unwrap();
        assert!(shed.degraded);
        assert_eq!(shed.causes.overloaded, 1);
        assert!(shed.pages.is_empty());
        release_slots(queries, MAX_CONCURRENT_QUERIES);

        // Caller mistakes still surface as errors, not degradation.
        let err = service
            .query_paged_degraded(std::slice::from_ref(&probe), &PageRequest::new(0))
            .unwrap_err();
        assert!(matches!(err, IndexError::InvalidQuery(_)));
    }

    #[test]
    fn degraded_queries_restart_stale_cursors_from_a_fresh_snapshot() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        service.add_batch(batch("s", 12, 0)).unwrap();
        service.commit_wait().unwrap();
        let probe = family(0, 400);
        let req = PageRequest::new(3);
        let first = service.query_paged(std::slice::from_ref(&probe), &req).unwrap();
        let cursor = first[0].next_cursor.expect("more than one page");

        // Evict the pinned generation behind SNAPSHOT_RETENTION + 1
        // newer ones.
        pin_newer_generations(&service, SNAPSHOT_RETENTION + 1);

        let resumed = service
            .query_paged_degraded(std::slice::from_ref(&probe), &req.with_cursor(cursor))
            .unwrap();
        assert!(resumed.degraded, "a restarted scan is not the page the cursor asked for");
        assert_eq!(resumed.causes.stale_cursor, 1);
        assert!(!resumed.pages[0].hits.is_empty(), "the restart answers from a fresh snapshot");
        assert!(resumed.pages[0].next_cursor.is_none() || resumed.pages[0].hits.len() == 3);
    }

    #[test]
    fn compaction_pauses_under_commit_pressure_and_resumes() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        // Simulate a full queue of in-flight commits.
        hold_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS, MAX_PENDING_COMMITS);
        service.maintain();
        assert_eq!(service.stats().compact.paused_passes, 1, "pressure pauses the pass");
        assert_eq!(service.stats().compact.passes, 0);
        release_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS);
        service.maintain();
        assert_eq!(service.stats().compact.paused_passes, 1, "pressure gone, passes resume");
    }

    #[test]
    fn compaction_pauses_exactly_when_the_commit_queue_is_full() {
        let service = IndexOptions::from_config(config()).with_auto_compact(false).serve().unwrap();
        // Four equal segments: the default size-tiered plan merges them.
        for b in 0..4u64 {
            service.add_batch(batch("tier", 4, b)).unwrap();
            service.commit_wait().unwrap();
        }
        // One slot below full: the pass runs and a commit is admitted.
        hold_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS, MAX_PENDING_COMMITS - 1);
        service.maintain();
        let compact = service.stats().compact;
        assert_eq!((compact.paused_passes, compact.passes), (0, 1));
        service.add_batch(batch("edge", 2, 7)).unwrap();
        assert_eq!(service.commit().unwrap().wait().unwrap().rows_added, 2);

        // Full: the pass pauses and the next commit sheds at the door.
        hold_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS, 1);
        service.maintain();
        assert_eq!(service.stats().compact.paused_passes, 1);
        service.add_batch(batch("full", 2, 8)).unwrap();
        let err = service.commit().unwrap_err();
        assert!(matches!(err, IndexError::Overloaded { ref class, .. } if class == "commit"));
        assert_eq!(service.stats().commit.shed, 1);
        release_slots(&service.shared.commit_metrics, MAX_PENDING_COMMITS);
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_monotone_in_cap() {
        for attempt in 0..8 {
            let d1 = retry_delay(attempt);
            let d2 = retry_delay(attempt);
            assert_eq!(d1, d2, "jitter must be deterministic");
            assert!(d1 <= RETRY_MAX_DELAY, "delay exceeds cap at attempt {attempt}");
            assert!(d1 >= RETRY_BASE_DELAY / 2u32.pow(1), "delay under half the base");
        }
    }
}
