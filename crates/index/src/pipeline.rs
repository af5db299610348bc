//! The commit pipeline: **stage → sign → seal**, overlapped across
//! threads.
//!
//! `IndexWriter::commit()` is serial: it signs the staged batch (the
//! CPU-heavy half — MinHash over every staged set) and then seals it
//! (bucket-table build + manifest append) before the next batch can even
//! start signing. The pipeline splits the two halves along the thread
//! boundary the `crossbeam` channel stand-in provides:
//!
//! * the **service** stages a batch and `CommitPipeline::submit`s it:
//!   the batch is assigned a strictly increasing sequence number *under
//!   the writer lock*, so sequence order equals global-id order;
//! * a pool of **signer** threads pull jobs off a shared channel and
//!   sign them lock-free (each holds a copy of the index's
//!   `SignatureScheme`) — commit N+1 signs while commit N seals;
//! * one **sealer** thread re-orders signed batches back into sequence
//!   order (a `BTreeMap` holdback buffer) and applies them one at a
//!   time under the writer lock, so manifest generations stay strictly
//!   ordered no matter which signer finishes first.
//!
//! Admission control lives at the door: the service bounds the number
//! of in-flight commits *before* staging is taken, so a queue-full shed
//! loses nothing and every submitted batch is signed and sealed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use gas_core::minhash::SignatureScheme;

use crate::error::{IndexError, IndexResult};
use crate::lifecycle::{sign_staged, CommitSummary, IndexWriter, StagedBatch};
use crate::segment::SignedRows;
use crate::service::ClassMetrics;

/// The receipt of a pipelined commit: resolves to the same
/// [`CommitSummary`] a serial `commit()` would have returned, or to a
/// typed error if the seal failed or the pipeline stopped first.
#[derive(Debug)]
pub struct CommitTicket {
    rx: Receiver<IndexResult<CommitSummary>>,
}

impl CommitTicket {
    /// A ticket already resolved to `result` (the service's fast path
    /// for empty commits, which never enter the pipeline).
    pub(crate) fn ready(result: IndexResult<CommitSummary>) -> Self {
        let (tx, rx) = unbounded();
        let _ = tx.send(result);
        CommitTicket { rx }
    }

    /// Block until the commit seals and return its outcome.
    pub fn wait(self) -> IndexResult<CommitSummary> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(IndexError::Overloaded {
                class: "commit".into(),
                context: "pipeline stopped before the commit sealed".into(),
            })
        })
    }
}

/// One batch travelling from the service to a signer.
struct SignJob {
    seq: u64,
    batch: StagedBatch,
    enqueued: Instant,
    ticket: Sender<IndexResult<CommitSummary>>,
}

/// One signed batch travelling from a signer to the sealer.
struct SignedCommit {
    rows: SignedRows,
    deletes: BTreeSet<u32>,
    enqueued: Instant,
    ticket: Sender<IndexResult<CommitSummary>>,
}

struct SealMsg {
    seq: u64,
    commit: SignedCommit,
}

/// The running pipeline: signer pool + sealer, torn down (channels
/// closed, threads joined) on drop.
#[derive(Debug)]
pub(crate) struct CommitPipeline {
    job_tx: Option<Sender<SignJob>>,
    next_seq: u64,
    signers: Vec<JoinHandle<()>>,
    sealer: Option<JoinHandle<()>>,
}

impl CommitPipeline {
    /// Start `signer_threads` signers and the sealer over `writer`.
    pub(crate) fn start(
        writer: Arc<Mutex<IndexWriter>>,
        scheme: SignatureScheme,
        signer_threads: usize,
        metrics: Arc<ClassMetrics>,
    ) -> Self {
        let (job_tx, job_rx) = unbounded::<SignJob>();
        let (seal_tx, seal_rx) = unbounded::<SealMsg>();
        // The mpsc-backed stand-in `Receiver` is `Send` but not `Sync`:
        // the pool shares it behind a mutex, held only while receiving.
        let job_rx = Arc::new(Mutex::new(job_rx));
        let signers = (0..signer_threads.max(1))
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let seal_tx = seal_tx.clone();
                std::thread::spawn(move || signer_loop(&job_rx, &seal_tx, scheme))
            })
            .collect();
        drop(seal_tx); // sealer exits once every signer has
        let sealer = std::thread::spawn(move || sealer_loop(&seal_rx, &writer, &metrics));
        CommitPipeline { job_tx: Some(job_tx), next_seq: 0, signers, sealer: Some(sealer) }
    }

    /// Enqueue a taken batch. Must be called under the same writer lock
    /// that took the batch, so sequence order equals id order.
    pub(crate) fn submit(&mut self, batch: StagedBatch) -> CommitTicket {
        let (tx, rx) = unbounded();
        let job = SignJob { seq: self.next_seq, batch, enqueued: Instant::now(), ticket: tx };
        self.next_seq += 1;
        if let Some(job_tx) = &self.job_tx {
            // A send can only fail after shutdown; the dropped ticket
            // sender then resolves `wait()` to the typed shutdown error.
            let _ = job_tx.send(job);
        }
        CommitTicket { rx }
    }
}

impl Drop for CommitPipeline {
    fn drop(&mut self) {
        // Closing the job channel drains the signers; their seal senders
        // drop with them, which drains the sealer.
        self.job_tx = None;
        for handle in self.signers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.sealer.take() {
            let _ = handle.join();
        }
    }
}

/// Pull jobs until the service closes the channel, signing each batch
/// lock-free.
fn signer_loop(
    jobs: &Mutex<Receiver<SignJob>>,
    seal_tx: &Sender<SealMsg>,
    scheme: SignatureScheme,
) {
    loop {
        let job = {
            let rx = jobs.lock().expect("signer channel lock poisoned");
            rx.recv()
        };
        let Ok(job) = job else { return };
        let SignJob { seq, batch, enqueued, ticket } = job;
        let sign_started = Instant::now();
        let mut sign_span = gas_obs::span("commit", "sign");
        let rows = sign_staged(&scheme, batch.base, batch.samples);
        sign_span.annotate("rows", rows.global_ids.len() as f64);
        drop(sign_span);
        gas_obs::histogram("gas_commit_sign_micros")
            .record_micros(sign_started.elapsed().as_micros() as u64);
        let commit = SignedCommit { rows, deletes: batch.deletes, enqueued, ticket };
        if seal_tx.send(SealMsg { seq, commit }).is_err() {
            return; // sealer gone: shutdown
        }
    }
}

/// Re-order signed batches into submission order and seal them one at a
/// time under the writer lock.
fn sealer_loop(seal_rx: &Receiver<SealMsg>, writer: &Mutex<IndexWriter>, metrics: &ClassMetrics) {
    let mut next_seq = 0u64;
    let mut holdback: BTreeMap<u64, SignedCommit> = BTreeMap::new();
    while let Ok(msg) = seal_rx.recv() {
        holdback.insert(msg.seq, msg.commit);
        while let Some(SignedCommit { rows, deletes, enqueued, ticket }) =
            holdback.remove(&next_seq)
        {
            next_seq += 1;
            let mut guard = writer.lock().expect("writer lock poisoned");
            let seal_started = Instant::now();
            let result = {
                let _seal_span = gas_obs::span("commit", "seal");
                guard.commit_signed_rows(rows, deletes)
            };
            drop(guard);
            gas_obs::histogram("gas_commit_seal_micros")
                .record_micros(seal_started.elapsed().as_micros() as u64);
            metrics.finish(enqueued.elapsed(), result.is_ok());
            let _ = ticket.send(result);
        }
    }
}
