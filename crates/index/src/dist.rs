//! Distributed query serving over simulated ranks: **one executor runs
//! every batch, and a [`ServingLayout`] tells it where rows live**.
//!
//! The `p` ranks of a communicator are `p` *slots*. Slot `j` holds the
//! bucket tables of bands `b ≡ j (mod p)` ([`band_shard`]) and, of every
//! segment independently, the signature rows `local ≡ j (mod p)`
//! ([`sample_shard`], one [`SignatureShard`] per segment) — so a rank
//! keeps `~1/p` of the index instead of all `n · len · 8` signature
//! bytes, the dominant memory term of a sketch index. Rows are addressed
//! across segments by one key, `(seg_idx << 32) | local_row`
//! ([`row_key`]). A layout answers three questions and nothing else:
//!
//! * **do I probe band `b`** — when this rank *serves* the band's slot;
//! * **how does candidate `(seg_idx, local)` resolve** — a *local slice*
//!   (its slot is served here, or its segment is replicated), a *fetch
//!   by key* (another rank serves the slot), or *lost* (every owner of
//!   the slot crashed);
//! * **do I ship key `k`** — when this rank serves `k`'s slot, from its
//!   copy of that slot.
//!
//! Keyed sharding ([`dist_query_reader_batch_stats`]: one owner per
//! slot, all alive), crash failover
//! ([`dist_query_reader_batch_replicated`]: `c` owners per slot, the
//! first alive one serves, survivors regroup) and mixed placement
//! ([`install_placement`]: every rank also holds the segments a plan
//! replicates in full) are three values of that one type, and compose.
//! [`plan_placement`] picks a mixed placement from the probe heat each
//! segment reports, priced against the α–β–γ [`CostModel`].
//!
//! One batched round is a **constant number of collectives, no matter
//! how many segments the snapshot holds or which layout serves it** —
//! the communication-avoidance discipline of the paper applied to the
//! serving path:
//!
//! 1. **scatter** — the communicator's rank 0 signs the query batch and
//!    broadcasts the signatures (every query must visit every band, so
//!    the "scatter by band hash" degenerates to a broadcast while the
//!    *buckets* stay sharded; raw query values travel only when exact
//!    re-ranking is requested);
//! 2. **probe** — each rank probes the bands it serves of *every*
//!    segment (no communication) and routes each candidate by the
//!    layout: local, wanted, or lost;
//! 3. **request** — ranks allgather the keyed rows they want
//!    (deduplicated across segments *and* queries);
//! 4. **fetch** — each serving owner contributes each requested row
//!    *once* to an allgather, tagged with its key; every rank keeps the
//!    rows it asked for;
//! 5. **allgather + merge** — the per-rank partial top lists (already
//!    merged across segments locally) are allgathered, deduplicated by
//!    sample id and merged; every rank then finalizes (optional exact
//!    re-rank, truncate to `k`) identically.
//!
//! That is five collectives per batch (six with exact re-ranking); only
//! a layout with a lost slot spends one more, to agree on the dropped
//! rows. [`DistQueryStats`] observes the invariant and accounts for
//! every wire byte exactly, under every layout. The pre-keyed exchange
//! (one request/fetch pair per segment) is retained as
//! [`dist_query_reader_batch_stats_per_segment`] — the reference the
//! proptests and the bench sweep compare against, over the same helpers.
//!
//! A candidate surviving to the global top-k necessarily survives the
//! local top list of whichever rank found it, and every scored row is
//! byte-identical to the single-rank engine's, so the merged answer is
//! bit-identical to the single-rank engine's — the `query_serving`
//! integration suite pins that for the dist-matrix grid.

use std::collections::BTreeMap;

use gas_core::indicator::SampleCollection;
use gas_core::minhash::{signature_agreement, MinHashSignature};
use gas_dstsim::comm::Communicator;
use gas_dstsim::cost::CostModel;
use gas_dstsim::SimError;
use serde::{Deserialize, Serialize};

use crate::error::{IndexError, IndexResult};
use crate::lifecycle::IndexReader;
use crate::query::{
    finalize, live_candidates_by_segment, lsh_top_by, merge_scored_sources, page_cut, Neighbor,
    PageRequest, QueryOptions, QueryPage, Scored,
};
use crate::segment::{Segment, SegmentStats};

/// The slot holding `band`'s bucket tables among `nranks` slots:
/// round-robin over the band index. Band *keys* are already uniform
/// splitmix hashes, so round-robin assignment of whole bands is hash
/// sharding with a perfectly balanced placement — and, unlike hashing
/// the band index, it guarantees no rank is left without buckets
/// whenever `bands ≥ nranks` (true for every CI grid: indexes default
/// to ≥ 16 bands, the dist-matrix tops out at 12 ranks).
pub fn band_shard(band: usize, nranks: usize) -> usize {
    band % nranks
}

/// The slot holding sample `id`'s signature row: round-robin over the
/// sample id, so every slot stores `⌈n / p⌉` or `⌊n / p⌋` rows and
/// consecutive ids (which family-structured datasets cluster) spread
/// across ranks instead of hot-spotting one.
pub fn sample_shard(id: usize, nranks: usize) -> usize {
    id % nranks
}

/// Address a signature row across every segment of a snapshot with one
/// 64-bit key: the segment's position in the reader's segment list in
/// the high half, the local row in the low half. Keys from different
/// segments never collide, so one deduplicated request list (and one
/// row-fetch payload) can cover the whole snapshot.
pub fn row_key(seg_idx: usize, local: u32) -> u64 {
    debug_assert!(seg_idx <= u32::MAX as usize, "segment index exceeds the key's high half");
    (seg_idx as u64) << 32 | local as u64
}

/// Split a [`row_key`] back into `(segment index, local row)`.
pub fn split_row_key(key: u64) -> (usize, u32) {
    ((key >> 32) as usize, key as u32)
}

/// One slot's slice of a *segment's* signature matrix: the rows of the
/// local rows it owns under [`sample_shard`], flattened `len` words per
/// row in ascending local-row order. Sharding is per segment — every
/// sealed segment's rows spread round-robin over all slots
/// independently, so the balance property holds for each segment (and
/// therefore for their union) no matter how commits and compactions
/// sliced the corpus. For a single-segment index local rows *are* the
/// sample ids, which is exactly the pre-lifecycle behavior.
///
/// In the simulator every rank could reach the whole index by reference;
/// materializing the shard keeps the memory accounting honest (a real
/// deployment loads only its shard from the container) and forces the
/// scoring path through the shard-or-fetched lookup that a real
/// deployment would use.
#[derive(Debug, Clone)]
pub struct SignatureShard {
    rank: usize,
    nranks: usize,
    len: usize,
    rows: Vec<u64>,
}

impl SignatureShard {
    /// Extract slot `rank`'s shard of one sealed segment's signature
    /// matrix.
    pub fn for_segment(segment: &Segment, rank: usize, nranks: usize) -> Self {
        let len = segment.scheme().len();
        let n = segment.n_rows();
        let mut rows = Vec::with_capacity(n.div_ceil(nranks.max(1)) * len);
        let mut local = rank;
        while let Some(row) = segment.signature_words(local) {
            rows.extend_from_slice(row);
            local += nranks;
        }
        SignatureShard { rank, nranks, len, rows }
    }

    /// Whether this shard owns local row `id`.
    pub fn owns(&self, id: u32) -> bool {
        sample_shard(id as usize, self.nranks) == self.rank
    }

    /// The signature row of owned local row `id`.
    ///
    /// Panics if the shard does not own `id` (callers route non-owned
    /// rows through the fetched-row set).
    pub fn row(&self, id: u32) -> &[u64] {
        assert!(self.owns(id), "rank {} does not own row {id}", self.rank);
        let slot = (id as usize - self.rank) / self.nranks;
        &self.rows[slot * self.len..(slot + 1) * self.len]
    }

    /// Number of signature rows stored by this shard.
    pub fn n_rows(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        self.rows.len() / self.len
    }

    /// Bytes of signature data stored by this shard.
    pub fn bytes(&self) -> usize {
        self.rows.len() * 8
    }
}

/// One slot's signature shards of *every* segment of a reader snapshot,
/// resolving rows by [`row_key`] — the unit a [`ServingLayout`] holds
/// one copy of per slot this rank owns.
#[derive(Debug, Clone)]
pub(crate) struct ReaderShards {
    shards: Vec<SignatureShard>,
    seg_rows: Vec<usize>,
}

impl ReaderShards {
    /// Extract slot `rank`'s shard of every segment of `reader`.
    pub(crate) fn build(reader: &IndexReader, rank: usize, nranks: usize) -> Self {
        let shards: Vec<SignatureShard> = reader
            .segments()
            .iter()
            .map(|seg| SignatureShard::for_segment(seg, rank, nranks))
            .collect();
        let seg_rows = reader.segments().iter().map(|seg| seg.n_rows()).collect();
        ReaderShards { shards, seg_rows }
    }

    /// Number of segments sharded.
    #[cfg(test)]
    pub(crate) fn n_segments(&self) -> usize {
        self.shards.len()
    }

    /// Whether this slot owns keyed row `key`, with the key validated
    /// against the snapshot's segment layout — requests arrive over the
    /// wire, so an out-of-range key is a typed corruption error, never
    /// a panic.
    pub(crate) fn owns_key(&self, key: u64) -> IndexResult<bool> {
        let (seg_idx, local) = split_row_key(key);
        let rows = *self.seg_rows.get(seg_idx).ok_or_else(|| IndexError::Corrupt {
            context: format!(
                "requested row key {key:#x} addresses segment {seg_idx} of {}",
                self.seg_rows.len()
            ),
        })?;
        if local as usize >= rows {
            return Err(IndexError::Corrupt {
                context: format!(
                    "requested row key {key:#x} addresses row {local} of a {rows}-row segment"
                ),
            });
        }
        Ok(self.shards[seg_idx].owns(local))
    }

    /// The signature row of owned keyed row `key` (panics when this
    /// slot does not own it — callers validate with
    /// [`Self::owns_key`] first).
    pub(crate) fn row(&self, key: u64) -> &[u64] {
        let (seg_idx, local) = split_row_key(key);
        self.shards[seg_idx].row(local)
    }

    /// Total signature rows stored across all segment shards.
    pub(crate) fn n_rows(&self) -> usize {
        self.shards.iter().map(SignatureShard::n_rows).sum()
    }
}

/// How one segment of a snapshot is served under a mixed placement
/// ([`install_placement`]). [`plan_placement`] prices both strategies
/// per segment against the α–β–γ machine model and observed probe heat;
/// the serving path only *executes* the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentPlacement {
    /// Every rank holds the segment's full signature matrix (installed
    /// once by [`install_placement`]); candidate rows resolve locally
    /// and never enter the per-batch keyed exchange. Pays `~rows/p·(p−1)`
    /// install rows once, then zero fetch traffic per batch — the right
    /// call for large, old, compacted segments with sustained probe heat.
    Replicated,
    /// The segment's rows stay sharded round-robin ([`sample_shard`]);
    /// candidates another rank serves are fetched through the keyed
    /// exchange every batch. Zero install cost — the right call for
    /// small fresh segments that compaction will soon rewrite anyway.
    Sharded,
}

/// How one candidate row resolves on this rank under a layout.
enum Resolved<'a> {
    /// Here: its slot is served by this rank, or its segment replicated.
    Local(&'a [u64]),
    /// Another rank serves the row's slot: fetch it by [`row_key`].
    Fetch,
    /// Every owner of the row's slot crashed: the row is unscorable.
    Lost,
}

/// One segment's row resolution under a layout: replica or slots is
/// decided here, once per segment, outside the scoring closure.
struct SegmentRows<'a> {
    layout: &'a ServingLayout,
    seg_idx: usize,
    seg: &'a Segment,
    replica: Option<&'a [u64]>,
}

impl<'a> SegmentRows<'a> {
    fn resolve(&self, local: u32) -> Resolved<'a> {
        let layout = self.layout;
        if let Some(matrix) = self.replica {
            let start = local as usize * layout.len;
            return Resolved::Local(&matrix[start..start + layout.len]);
        }
        let slot = sample_shard(local as usize, layout.slots.nranks);
        match layout.slots.serving[slot] {
            None => Resolved::Lost,
            Some(server) if server == layout.slots.me => {
                Resolved::Local(layout.copies[&slot].shards[self.seg_idx].row(local))
            }
            Some(_) => Resolved::Fetch,
        }
    }
}

/// The slot table of a layout: who owns and who serves each slot, over
/// the `p` ranks of the communicator the layout was built on.
#[derive(Debug, Clone)]
struct Slots {
    me: usize,
    nranks: usize,
    replication: usize,
    /// slot → serving rank; `None` = every owner crashed.
    serving: Vec<Option<usize>>,
    /// World ranks of the crashed members, ascending.
    failed_ranks: Vec<usize>,
}

/// One rank's serving state: *where row `k` lives and who is alive to
/// serve it* — the single parameter of the distributed executor (the
/// module docs list the three questions it answers).
///
/// Slot `j` is owned by the `replication` consecutive ranks
/// `(j + k) % p` of the communicator the layout was built on, each
/// holding a copy of the slot's shards; the **first owner not injected
/// as crashed** serves it, and a slot with no such owner is *lost*. The
/// fault spec is common knowledge in the simulator (a membership service
/// in a real deployment), so every rank derives the identical table and
/// the collective schedule stays in lockstep. [`install_placement`] adds
/// the full matrix of each replicated segment.
#[derive(Debug, Clone)]
pub struct ServingLayout {
    slots: Slots,
    /// slot → this rank's copy of its shards, for each slot it owns.
    copies: BTreeMap<usize, ReaderShards>,
    /// Segment ids of the snapshot the layout was built for, in order.
    seg_ids: Vec<u64>,
    /// segment id (which names immutable bytes) → full replica matrix.
    replicas: BTreeMap<u64, Vec<u64>>,
    len: usize,
}

impl ServingLayout {
    /// The all-sharded layout of `reader` over the ranks of `comm` with
    /// `replication` owners per slot (clamped to `1..=p`). No
    /// communication: each rank cuts its own slot copies, so the crashed
    /// members of `comm` — the layout's [`failed_ranks`](Self::failed_ranks)
    /// — need not take part.
    pub fn sharded(comm: &Communicator, reader: &IndexReader, replication: usize) -> Self {
        let p = comm.size();
        let world_rank = |r: usize| comm.world_rank_of(r).expect("r < comm.size()");
        let alive = |r: usize| !comm.faults().is_crashed(world_rank(r));
        let replication = replication.clamp(1, p);
        let serving = (0..p).map(|j| (0..replication).map(|k| (j + k) % p).find(|&r| alive(r)));
        let slots = Slots {
            me: comm.rank(),
            nranks: p,
            replication,
            serving: serving.collect(),
            failed_ranks: (0..p).filter(|&r| !alive(r)).map(world_rank).collect(),
        };
        ServingLayout::over(slots, reader)
    }

    /// `slots` over a snapshot: all sharded, copies cut from `reader`.
    fn over(slots: Slots, reader: &IndexReader) -> Self {
        let (me, p) = (slots.me, slots.nranks);
        let homes = (0..slots.replication).map(|k| (me + p - k) % p);
        ServingLayout {
            copies: homes.map(|home| (home, ReaderShards::build(reader, home, p))).collect(),
            slots,
            seg_ids: reader.segments().iter().map(|seg| seg.id()).collect(),
            replicas: BTreeMap::new(),
            len: reader.scheme().len(),
        }
    }

    /// World ranks the layout was built without (injected as crashed),
    /// ascending.
    pub fn failed_ranks(&self) -> &[usize] {
        &self.slots.failed_ranks
    }

    /// Some slot lost every owner: its bands and sharded rows are lost.
    fn has_lost_slot(&self) -> bool {
        self.slots.serving.iter().any(Option::is_none)
    }

    /// Question 1: does this rank probe `band`?
    fn probes_band(&self, band: usize) -> bool {
        self.slots.serving[band_shard(band, self.slots.nranks)] == Some(self.slots.me)
    }

    /// Question 2: how do the candidates of segment `seg_idx` resolve?
    fn segment_rows<'a>(&'a self, seg_idx: usize, seg: &'a Segment) -> SegmentRows<'a> {
        let replica = self.replicas.get(&seg.id()).map(Vec::as_slice);
        SegmentRows { layout: self, seg_idx, seg, replica }
    }

    /// Question 3: does this rank ship keyed row `key` — if so, the row.
    /// Keys arrive over the wire, so the key is range-validated first.
    fn shipped_row(&self, key: u64) -> IndexResult<Option<&[u64]>> {
        self.copies[&self.slots.me].owns_key(key)?;
        let slot = sample_shard(split_row_key(key).1 as usize, self.slots.nranks);
        Ok((self.slots.serving[slot] == Some(self.slots.me)).then(|| self.copies[&slot].row(key)))
    }

    /// Allgather the rows of `keys` this rank ships, `[key, row...]`-framed.
    fn allgather_rows(
        &self,
        world: &Communicator,
        keys: impl IntoIterator<Item = u64>,
    ) -> IndexResult<Vec<Vec<u64>>> {
        let mut payload = Vec::new();
        for key in keys {
            if let Some(row) = self.shipped_row(key)? {
                payload.push(key);
                payload.extend_from_slice(row);
            }
        }
        Ok(world.allgatherv(&payload)?)
    }

    /// Parse the streams of [`Self::allgather_rows`] into `(key, row)`
    /// pairs, validating the framing and every key's range.
    fn framed_rows<'a>(
        &self,
        streams: &'a [Vec<u64>],
        what: &str,
    ) -> IndexResult<Vec<(u64, &'a [u64])>> {
        let stride = self.len + 1;
        let mut out = Vec::new();
        for (rank, stream) in streams.iter().enumerate() {
            if stream.len() % stride != 0 {
                return Err(IndexError::Corrupt {
                    context: format!(
                        "{what} stream from rank {rank} is {} words, not a multiple of {stride}",
                        stream.len()
                    ),
                });
            }
            for frame in stream.chunks_exact(stride) {
                self.copies[&self.slots.me].owns_key(frame[0])?;
                out.push((frame[0], &frame[1..]));
            }
        }
        Ok(out)
    }

    /// A fresh round's stats: what this rank stores vs full replication.
    fn fresh_stats(&self, reader: &IndexReader) -> DistQueryStats {
        let shard_rows = self.copies.values().map(ReaderShards::n_rows).sum();
        DistQueryStats {
            shard_rows,
            shard_bytes: shard_rows * self.len * 8,
            replicated_bytes: reader.n_rows() * self.len * 8,
            ..Default::default()
        }
    }
}

/// Per-segment slice of one sharded query round, per rank: how many of
/// the segment's rows this rank stored, probed, resolved locally and
/// fetched — the breakdown that makes the one-exchange batching
/// observable segment by segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentExchangeStats {
    /// The sealed segment's id.
    pub segment_id: u64,
    /// Signature rows of this segment stored by this rank's slot copies.
    pub shard_rows: usize,
    /// Distinct live, scorable candidate rows this rank's probes surfaced.
    pub candidate_rows: usize,
    /// Of those, rows resolved locally (slot copy or replica).
    pub owned_rows: usize,
    /// Of those, rows resolved from the fetched set.
    pub fetched_rows: usize,
}

/// Memory and traffic accounting of one sharded query round, per rank.
///
/// The four `*_bytes` phase counters record the bytes this rank
/// **received over the wire** in each phase, exactly: broadcasts
/// deliver their payload to every non-root rank once (binomial tree),
/// and an allgatherv's ring delivers every *foreign* block exactly once
/// (a rank's own contribution never travels to itself). Their sum,
/// [`Self::wire_bytes`], equals the simulator's per-rank
/// `CostReport::bytes_received` for the batch under every layout —
/// pinned by a unit test, so the bench's byte columns are trustworthy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistQueryStats {
    /// Signature rows this rank stores in its slot copies, summed over
    /// segments (replicas: [`PlacementInstallStats::replica_bytes`]).
    pub shard_rows: usize,
    /// Bytes of signature data those rows take.
    pub shard_bytes: usize,
    /// Distinct rows this rank's probes needed from other ranks this
    /// round, summed over segments (each fetched once, keyed).
    pub fetched_rows: usize,
    /// Bytes of those fetched rows (transient working set, freed after
    /// the batch).
    pub fetched_bytes: usize,
    /// What replicating the whole signature matrix on this rank would
    /// cost — the pre-sharding baseline the shard is measured against.
    pub replicated_bytes: usize,
    /// Collectives this rank participated in for the batch — constant
    /// (5, or 6 with exact re-ranking; one more only when the layout
    /// has a lost slot) regardless of segment count; `2 · (segments −
    /// 1)` higher on the per-segment reference path.
    pub collective_calls: usize,
    /// Wire bytes received in the query broadcasts (validity flag,
    /// signatures, raw values when re-ranking).
    pub bcast_bytes: usize,
    /// Wire bytes received in the keyed row-request allgather (and, in
    /// a degraded round, the dropped-row allgather).
    pub request_bytes: usize,
    /// Wire bytes received in the keyed row-fetch allgather — the
    /// allgather fans every owner's contribution out to all ranks, and
    /// this counter records that full delivery (≥ the kept
    /// `fetched_bytes`), so the transient receive buffer is never
    /// understated.
    pub fetch_bytes: usize,
    /// Wire bytes received in the partial-top-list allgather.
    pub merge_bytes: usize,
    /// Order-insensitive fingerprint of the fetched row *content*
    /// (key + row words per fetched row): two exchanges that ship the
    /// same rows to this rank agree here even if their wire framing
    /// differs — how the keyed-equals-per-segment property is pinned.
    pub fetched_fingerprint: u64,
    /// Per-segment breakdown of storage and row resolution, in the
    /// reader's segment order.
    pub per_segment: Vec<SegmentExchangeStats>,
}

impl DistQueryStats {
    /// Total wire bytes this rank received for the batch — the sum of
    /// the four phase counters, equal to the simulator's per-rank
    /// `bytes_received` for the round.
    pub fn wire_bytes(&self) -> usize {
        self.bcast_bytes + self.request_bytes + self.fetch_bytes + self.merge_bytes
    }

    /// Fold one exchange's kept rows into the round's fetch accounting.
    fn absorb_fetched(&mut self, fetched: &KeyedRows) {
        self.fetched_rows += fetched.keys.len();
        self.fetched_bytes += fetched.rows.len() * 8;
        self.fetched_fingerprint = self.fetched_fingerprint.wrapping_add(fetched.fingerprint());
    }
}

/// What one query round lost to crashed ranks — the exact accounting of
/// degraded serving. `degraded == false` guarantees the answers are
/// bit-identical to a fault-free round (every band and every requested
/// row was served by a surviving owner).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// Any band or signature row lost all its owners this round.
    pub degraded: bool,
    /// World ranks injected as crashed (did not participate).
    pub failed_ranks: Vec<usize>,
    /// Band indices with no surviving owner: their bucket tables were
    /// probed by nobody, so candidates only they would surface are
    /// missing from the answers.
    pub lost_bands: Vec<usize>,
    /// Distinct candidate signature rows (across all segments and all
    /// ranks) whose every owner is crashed — surfaced by a probe but
    /// unscorable, dropped from the ranking.
    pub lost_rows: usize,
}

/// Encode per-query partial top lists as a flat `u64` stream:
/// `[len, (id << 32 | agreement), ...]` per query, in query order.
fn encode_partials(partials: &[Vec<(u32, u32)>]) -> Vec<u64> {
    let mut out = Vec::with_capacity(partials.iter().map(|p| p.len() + 1).sum());
    for per_query in partials {
        out.push(per_query.len() as u64);
        for &(agreement, id) in per_query {
            out.push((id as u64) << 32 | agreement as u64);
        }
    }
    out
}

/// Decode one rank's stream back into per-query `(agreement, id)` lists.
fn decode_partials(stream: &[u64], nqueries: usize) -> IndexResult<Vec<Vec<(u32, u32)>>> {
    let mut out = Vec::with_capacity(nqueries);
    let mut pos = 0usize;
    for q in 0..nqueries {
        let len = *stream.get(pos).ok_or_else(|| IndexError::Corrupt {
            context: format!("partial top-k stream ends before query {q}"),
        })? as usize;
        pos += 1;
        if pos + len > stream.len() {
            return Err(IndexError::Corrupt {
                context: format!("partial top-k stream truncated inside query {q}"),
            });
        }
        out.push(
            stream[pos..pos + len]
                .iter()
                .map(|&w| ((w & 0xFFFF_FFFF) as u32, (w >> 32) as u32))
                .collect(),
        );
        pos += len;
    }
    if pos != stream.len() {
        return Err(IndexError::Corrupt {
            context: format!("{} trailing words in partial top-k stream", stream.len() - pos),
        });
    }
    Ok(out)
}

/// The words of an allgatherv result that actually crossed the wire
/// into rank `me`: every block except its own (the ring forwards each
/// foreign block to each rank exactly once; the local block never
/// leaves the rank).
fn foreign_words(blocks: &[Vec<u64>], me: usize) -> usize {
    blocks.iter().enumerate().filter(|&(r, _)| r != me).map(|(_, b)| b.len()).sum()
}

/// FNV-1a over a little-endian word stream — the per-row ingredient of
/// the order-insensitive fetched-content fingerprint.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The signature rows fetched from other ranks for one batch: sorted,
/// deduplicated [`row_key`]s parallel to `len`-word rows in one flat
/// buffer — all segments demultiplex from this single set.
struct KeyedRows {
    keys: Vec<u64>,
    rows: Vec<u64>,
    len: usize,
}

impl KeyedRows {
    fn row(&self, key: u64) -> Option<&[u64]> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|slot| &self.rows[slot * self.len..(slot + 1) * self.len])
    }

    /// Order-insensitive fingerprint of the kept row content: the
    /// wrapping sum of each row's keyed FNV-1a hash, so two exchanges
    /// shipping the same rows (in any order, under any framing) agree.
    fn fingerprint(&self) -> u64 {
        self.keys
            .iter()
            .enumerate()
            .map(|(slot, &key)| {
                let row = &self.rows[slot * self.len..(slot + 1) * self.len];
                fnv1a_words(std::iter::once(key).chain(row.iter().copied()))
            })
            .fold(0u64, u64::wrapping_add)
    }
}

/// What the query broadcasts deliver to every rank: the signed batch,
/// plus the raw query values when exact re-ranking needs them.
type BroadcastBatch = (Vec<MinHashSignature>, Option<Vec<Vec<u64>>>);

/// Phase 1 of a distributed batch: rank 0 validates and signs the query
/// batch, then broadcasts signatures (and raw values when exact
/// re-ranking needs them). The validity flag is broadcast *first* so
/// that a misuse on the ingress rank (no query batch) surfaces as a
/// typed error on every rank instead of leaving the other ranks blocked
/// in a bcast that never comes. Two or three collectives, counted and
/// byte-accounted into `stats`.
fn broadcast_query_batch(
    world: &Communicator,
    reader: &IndexReader,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
    stats: &mut DistQueryStats,
) -> IndexResult<BroadcastBatch> {
    let me = world.rank();
    // A broadcast delivers its payload once to every non-root rank.
    let mut charge = |bytes: usize| {
        stats.collective_calls += 1;
        stats.bcast_bytes += if me == 0 { 0 } else { bytes };
    };
    let root_ok = world.bcast(0, if me == 0 { Some(queries.is_some() as u8) } else { None })?;
    charge(1);
    if root_ok == 0 {
        return Err(IndexError::InvalidQuery("rank 0 must provide the query batch".into()));
    }
    let queries = queries.filter(|_| me == 0);
    let signed: Option<Vec<Vec<u64>>> =
        queries.map(|qs| qs.iter().map(|q| reader.scheme().sign(q).values().to_vec()).collect());
    let signed_values: Vec<Vec<u64>> = world.bcast(0, signed)?;
    charge(signed_values.iter().map(|s| s.len() * 8).sum());
    let signatures: Vec<MinHashSignature> =
        signed_values.into_iter().map(MinHashSignature::from_values).collect();
    let raw_queries: Option<Vec<Vec<u64>>> = if opts.rerank_exact {
        let raw = world.bcast(0, queries.map(<[_]>::to_vec))?;
        charge(raw.iter().map(|q| q.len() * 8).sum());
        Some(raw)
    } else {
        None
    };
    Ok((signatures, raw_queries))
}

/// Phase 2's routing, per segment: drop the candidates whose row is
/// lost (keys to `dropped` — dropped, not guessed at), append the keys
/// another rank serves to `wanted` (ascending and distinct, so `wanted`
/// stays sorted when segments route in order), report the breakdown.
fn route_candidates(
    rows: &SegmentRows<'_>,
    per_query: &mut [Vec<u32>],
    wanted: &mut Vec<u64>,
    dropped: &mut Vec<u64>,
) -> SegmentExchangeStats {
    let (mut owned, mut fetched) = (Vec::new(), Vec::new());
    for candidates in per_query {
        candidates.retain(|&local| match rows.resolve(local) {
            Resolved::Local(_) => {
                owned.push(local);
                true
            }
            Resolved::Fetch => {
                fetched.push(local);
                true
            }
            Resolved::Lost => {
                dropped.push(row_key(rows.seg_idx, local));
                false
            }
        });
    }
    for distinct in [&mut owned, &mut fetched] {
        distinct.sort_unstable();
        distinct.dedup();
    }
    wanted.extend(fetched.iter().map(|&local| row_key(rows.seg_idx, local)));
    let copies = rows.layout.copies.values();
    SegmentExchangeStats {
        segment_id: rows.seg.id(),
        shard_rows: copies.map(|copy| copy.shards[rows.seg_idx].n_rows()).sum(),
        candidate_rows: owned.len() + fetched.len(),
        owned_rows: owned.len(),
        fetched_rows: fetched.len(),
    }
}

/// Phases 3–4, the one request/fetch pair, over `wanted` (sorted,
/// distinct, covering whatever segments the caller batched). Each
/// serving owner *contributes* each requested row once, but the
/// allgather delivers every contribution to all ranks —
/// [`DistQueryStats::fetch_bytes`] records that fan-out exactly.
fn exchange_rows(
    world: &Communicator,
    layout: &ServingLayout,
    wanted: &[u64],
    stats: &mut DistQueryStats,
) -> IndexResult<KeyedRows> {
    let me = world.rank();
    let all_requests: Vec<Vec<u64>> = world.allgatherv(wanted)?;
    stats.collective_calls += 1;
    stats.request_bytes += foreign_words(&all_requests, me) * 8;

    // Ship the union of everyone's requests, deduplicated so a row
    // wanted by several ranks or queries still travels exactly once.
    let mut requested: Vec<u64> = all_requests.into_iter().flatten().collect();
    requested.sort_unstable();
    requested.dedup();
    let shipped = layout.allgather_rows(world, requested)?;
    stats.collective_calls += 1;
    stats.fetch_bytes += foreign_words(&shipped, me) * 8;

    // Keep only the rows this rank asked for (the allgather delivers
    // everyone's); one rank serves a slot, so keys never collide.
    let mut fetched = layout.framed_rows(&shipped, "signature-row")?;
    fetched.retain(|(key, _)| wanted.binary_search(key).is_ok());
    fetched.sort_unstable_by_key(|&(key, _)| key);
    let mut out = KeyedRows { keys: Vec::new(), rows: Vec::new(), len: layout.len };
    for (key, row) in fetched {
        out.keys.push(key);
        out.rows.extend_from_slice(row);
    }
    // Lost rows were never requested, so every wanted key has a live
    // server: a hole means the layout diverged across ranks.
    if let Some(&missing) = wanted.iter().find(|&&key| out.row(key).is_none()) {
        return Err(IndexError::Corrupt {
            context: format!("no serving rank shipped requested signature row key {missing:#x}"),
        });
    }
    Ok(out)
}

/// Score one segment's candidates for every query and extend the
/// per-query entry lists with `(agreement, global id)` — rows resolve
/// from the layout or the keyed fetched set, and the scoring order
/// (parallel map + reduce per query) is the single-rank engine's, so
/// answers stay bit-identical.
fn score_segment(
    rows: &SegmentRows<'_>,
    fetched: &KeyedRows,
    signatures: &[MinHashSignature],
    per_query_candidates: &[Vec<u32>],
    keep: usize,
    per_query_entries: &mut [Vec<Scored>],
) {
    for (q, (sig, candidates)) in signatures.iter().zip(per_query_candidates).enumerate() {
        let score_of = |local: u32| -> u32 {
            let row = match rows.resolve(local) {
                Resolved::Local(row) => row,
                Resolved::Fetch => {
                    fetched.row(row_key(rows.seg_idx, local)).expect("validated by exchange_rows")
                }
                Resolved::Lost => unreachable!("route_candidates drops lost rows before scoring"),
            };
            signature_agreement(sig.values(), row) as u32
        };
        per_query_entries[q].extend(
            lsh_top_by(&score_of, candidates, keep)
                .into_iter()
                .map(|(a, local)| (a, rows.seg.global_id(local as usize))),
        );
    }
}

/// Phase 5 of a distributed batch: merge this rank's entries across
/// segments (so the wire carries at most `keep` entries per query per
/// rank no matter how many segments exist), allgather the partial top
/// lists and merge with the same deterministic rule the local engine
/// uses — one entry per sample id (a candidate can surface on several
/// ranks, one per colliding band), ties ordered by lowest id — then
/// finalize identically on every rank.
fn merge_partials_and_finalize(
    world: &Communicator,
    per_query_entries: Vec<Vec<Scored>>,
    raw_queries: &Option<Vec<Vec<u64>>>,
    collection: Option<&SampleCollection>,
    opts: &QueryOptions,
    len: usize,
    stats: &mut DistQueryStats,
) -> IndexResult<Vec<Vec<Neighbor>>> {
    let me = world.rank();
    let nqueries = per_query_entries.len();
    let keep = opts.keep();
    let partials: Vec<Vec<Scored>> =
        per_query_entries.into_iter().map(|entries| merge_scored_sources(entries, keep)).collect();
    let streams: Vec<Vec<u64>> = world.allgatherv(&encode_partials(&partials))?;
    stats.collective_calls += 1;
    stats.merge_bytes += foreign_words(&streams, me) * 8;
    let mut merged: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nqueries];
    for stream in &streams {
        for (q, partial) in decode_partials(stream, nqueries)?.into_iter().enumerate() {
            merged[q].extend(partial);
        }
    }
    let mut answers = Vec::with_capacity(nqueries);
    for (q, entries) in merged.into_iter().enumerate() {
        let entries = merge_scored_sources(entries, keep);
        let query_values: &[u64] = match raw_queries {
            Some(qs) => &qs[q],
            None => &[],
        };
        answers.push(finalize(entries, len, query_values, collection, opts)?);
    }
    Ok(answers)
}

/// The one distributed executor (phases and budget: module docs). Every
/// public entry point builds or borrows a layout and calls this; none
/// has phase logic of its own. `world` is whatever communicator the
/// round runs on — the full world, or the survivor subgroup of a layout
/// with failed ranks — and must contain every serving rank of the
/// layout; `queries` must be `Some` on its rank 0.
fn execute(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
    layout: &ServingLayout,
) -> IndexResult<(Vec<Vec<Neighbor>>, DegradedReport, DistQueryStats)> {
    let me = world.rank();
    let segments = reader.segments();
    // A layout of another snapshot: typed, before any collective runs.
    if !layout.seg_ids.iter().copied().eq(segments.iter().map(|seg| seg.id()))
        || layout.len != reader.scheme().len()
    {
        return Err(IndexError::InvalidQuery(
            "placement was installed for a different snapshot".into(),
        ));
    }
    let mut stats = layout.fresh_stats(reader);

    let (signatures, raw_queries) = {
        let _bcast_span = gas_obs::span("dist", "bcast");
        broadcast_query_batch(world, reader, queries, opts, &mut stats)?
    };

    // Phase 2, no communication: probe the bands this rank serves of
    // every segment (skipping tombstoned rows) before any exchange, so
    // the row requests of all segments batch into one keyed round.
    let mut probe_span = gas_obs::span("dist", "probe");
    let mut per_segment_candidates =
        live_candidates_by_segment(reader, &signatures, |band| layout.probes_band(band));
    let (mut wanted, mut dropped) = (Vec::new(), Vec::new());
    for (seg_idx, per_query) in per_segment_candidates.iter_mut().enumerate() {
        let rows = layout.segment_rows(seg_idx, &segments[seg_idx]);
        stats.per_segment.push(route_candidates(&rows, per_query, &mut wanted, &mut dropped));
    }
    probe_span.annotate("wanted_rows", wanted.len() as f64);
    probe_span.annotate("dropped_rows", dropped.len() as f64);
    drop(probe_span);

    // Exact global accounting of lost rows (one several ranks surfaced
    // is lost once). Only with a lost slot: every rank derives the same
    // table, and with full coverage nothing can have been dropped.
    let lost_rows = if layout.has_lost_slot() {
        let all_dropped: Vec<Vec<u64>> = world.allgatherv(&dropped)?;
        stats.collective_calls += 1;
        stats.request_bytes += foreign_words(&all_dropped, me) * 8;
        let mut lost_keys: Vec<u64> = all_dropped.into_iter().flatten().collect();
        lost_keys.sort_unstable();
        lost_keys.dedup();
        lost_keys.len()
    } else {
        0
    };

    let fetched = {
        let _exchange_span = gas_obs::span("dist", "exchange");
        exchange_rows(world, layout, &wanted, &mut stats)?
    };
    stats.absorb_fetched(&fetched);

    let keep = opts.keep();
    let mut entries: Vec<Vec<Scored>> = vec![Vec::new(); signatures.len()];
    {
        let _score_span = gas_obs::span("dist", "score");
        for (seg_idx, per_query) in per_segment_candidates.iter().enumerate() {
            let rows = layout.segment_rows(seg_idx, &segments[seg_idx]);
            score_segment(&rows, &fetched, &signatures, per_query, keep, &mut entries);
        }
    }

    let answers = {
        let _merge_span = gas_obs::span("dist", "merge");
        let len = layout.len;
        merge_partials_and_finalize(
            world,
            entries,
            &raw_queries,
            collection,
            opts,
            len,
            &mut stats,
        )?
    };

    let slots = &layout.slots;
    let lost_bands: Vec<usize> = (0..reader.params().bands())
        .filter(|&b| slots.serving[band_shard(b, slots.nranks)].is_none())
        .collect();
    let degraded = !lost_bands.is_empty() || lost_rows > 0;
    // Fold the accounting into the registry, once, for every layout:
    // byte counters on every rank (their sum is the cluster-wide traffic
    // the cost model prices), per-batch counters on the ingress rank only.
    gas_obs::counter("gas_dist_bcast_bytes_total").add(stats.bcast_bytes as u64);
    gas_obs::counter("gas_dist_request_bytes_total").add(stats.request_bytes as u64);
    gas_obs::counter("gas_dist_fetch_bytes_total").add(stats.fetch_bytes as u64);
    gas_obs::counter("gas_dist_merge_bytes_total").add(stats.merge_bytes as u64);
    if me == 0 {
        gas_obs::counter("gas_dist_query_batches_total").inc();
        gas_obs::counter("gas_dist_collectives_total").add(stats.collective_calls as u64);
        if !layout.replicas.is_empty() {
            gas_obs::counter("gas_plan_planned_batches_total").inc();
        }
        if degraded {
            gas_obs::counter("gas_dist_degraded_batches_total").inc();
            gas_obs::counter("gas_dist_lost_bands_total").add(lost_bands.len() as u64);
            gas_obs::counter("gas_dist_lost_rows_total").add(lost_rows as u64);
        }
        if !slots.failed_ranks.is_empty() {
            gas_obs::counter("gas_dist_failover_batches_total").inc();
        }
    }
    let failed_ranks = slots.failed_ranks.clone();
    Ok((answers, DegradedReport { degraded, failed_ranks, lost_bands, lost_rows }, stats))
}

/// Serve a batch of top-k queries over a lifecycle snapshot, band- and
/// signature-sharded across the ranks of `world`, returning each rank's
/// answers plus its sharding stats — the executor under the plain keyed
/// layout ([`ServingLayout::sharded`], one owner per slot): five
/// collectives (six re-ranked) **regardless of segment count**, answers
/// bit-identical to the single-rank multi-segment reader's.
///
/// `queries` must be `Some` on rank 0 (the ingress rank) and is ignored
/// elsewhere. Every rank returns the complete, identical answer batch —
/// callers that only need the answer once can read it from any rank.
/// With `opts.rerank_exact` set, `collection` must be provided on every
/// rank, indexed by global sample id (the simulator shares it by
/// reference; a real deployment would shard the exact sets alongside
/// the buckets). A crashed member of `world` fails the round's
/// collectives with a typed [`IndexError::Sim`] on every rank.
pub fn dist_query_reader_batch_stats(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
) -> IndexResult<(Vec<Vec<Neighbor>>, DistQueryStats)> {
    let layout = ServingLayout::sharded(world, reader, 1);
    execute(world, reader, collection, queries, opts, &layout)
        .map(|(answers, _, stats)| (answers, stats))
}

/// The pre-keyed exchange, retained as the O(#segments) reference: the
/// executor's layout and phase helpers, but the request/fetch allgather
/// pair runs **once per segment**, so a snapshot of `s` segments costs
/// `3 + 2·s` collectives (`4 + 2·s` with exact re-ranking) — exactly
/// `2·(s − 1)` more than the keyed path. Answers are bit-identical to the
/// keyed path — the equivalence proptest pins that, along with identical
/// fetched row content per rank and both paths' collective counts.
pub fn dist_query_reader_batch_stats_per_segment(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
) -> IndexResult<(Vec<Vec<Neighbor>>, DistQueryStats)> {
    let layout = ServingLayout::sharded(world, reader, 1);
    let mut stats = layout.fresh_stats(reader);
    let (signatures, raw_queries) =
        broadcast_query_batch(world, reader, queries, opts, &mut stats)?;
    let keep = opts.keep();

    let mut per_segment_candidates =
        live_candidates_by_segment(reader, &signatures, |band| layout.probes_band(band));
    let mut entries: Vec<Vec<Scored>> = vec![Vec::new(); signatures.len()];
    for (seg_idx, per_query) in per_segment_candidates.iter_mut().enumerate() {
        let rows = layout.segment_rows(seg_idx, &reader.segments()[seg_idx]);
        // A lost row needs a crashed member of `world`: the exchange
        // below then fails typed on every rank.
        let (mut wanted, mut lost) = (Vec::new(), Vec::new());
        stats.per_segment.push(route_candidates(&rows, per_query, &mut wanted, &mut lost));
        let fetched = exchange_rows(world, &layout, &wanted, &mut stats)?;
        stats.absorb_fetched(&fetched);
        score_segment(&rows, &fetched, &signatures, per_query, keep, &mut entries);
    }

    let len = layout.len;
    let answers = merge_partials_and_finalize(
        world,
        entries,
        &raw_queries,
        collection,
        opts,
        len,
        &mut stats,
    )?;
    Ok((answers, stats))
}

/// Serve a batch of top-k queries over a lifecycle snapshot (the
/// stats-free form of [`dist_query_reader_batch_stats`]).
pub fn dist_query_reader_batch(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
) -> IndexResult<Vec<Vec<Neighbor>>> {
    dist_query_reader_batch_stats(world, reader, collection, queries, opts)
        .map(|(answers, _)| answers)
}

/// Serve one page per query over the shards of `world` — the
/// distributed form of [`crate::query::QueryEngine::query_page_batch`].
///
/// The full candidate ranking is computed distributedly (the same five
/// collectives as [`dist_query_reader_batch`], with an unbounded `top_k`
/// so no pool truncates the scan); the page cut is the single-rank
/// engine's own function, applied identically on every rank. Since the
/// full distributed ranking is bit-identical to the single-rank
/// engine's, every page is bit-identical to the page
/// [`crate::query::QueryEngine::query_page`] serves from the same
/// snapshot, and cursors are interchangeable between the two paths.
pub fn dist_query_reader_page(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    req: &PageRequest,
) -> IndexResult<Vec<QueryPage>> {
    let (full, cut) = page_cut(req, reader.generation())?;
    let rankings = dist_query_reader_batch(world, reader, collection, queries, &full)?;
    Ok(rankings.into_iter().map(cut).collect())
}

/// [`dist_query_reader_batch_stats`] with `replication`-way slot
/// replication and crash failover: every slot's bands and rows are
/// stored on `replication` consecutive ranks, survivors regroup in a
/// deterministic subgroup (crashed ranks cannot participate in a
/// collective), and each slot is served by its **first alive owner** —
/// the identical executor and schedule fault-free and faulted.
///
/// * Full coverage (every slot has a surviving owner): answers are
///   **bit-identical** to the fault-free round and
///   [`DegradedReport::degraded`] is `false`.
/// * Lost coverage: the round still completes, one collective dearer,
///   with a typed, exactly accounted [`DegradedReport`] — `lost_bands`
///   names every unprobed band, `lost_rows` counts every dropped
///   candidate row, and the `gas_dist_degraded_*` counters move. Never
///   a panic in the serving path.
/// * A crashed rank returns the typed error
///   [`gas_dstsim::SimError::RankCrashed`] instead of answers.
///
/// `queries` must be `Some` on the **lowest alive rank** (the ingress
/// seat fails over with everything else). `replication` is clamped to
/// `1..=p`; `replication == 1` is the unreplicated sharding, where any
/// crash degrades.
pub fn dist_query_reader_batch_replicated(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
    replication: usize,
) -> IndexResult<(Vec<Vec<Neighbor>>, DegradedReport, DistQueryStats)> {
    if world.is_crashed() {
        return Err(SimError::RankCrashed { rank: world.rank() }.into());
    }
    let layout = ServingLayout::sharded(world, reader, replication);
    let survivors = world.subgroup(&world.alive_world_ranks())?;
    execute(&survivors, reader, collection, queries, opts, &layout)
}

/// Batches a replica stays valid before churn, for segments without an
/// explicit [residency](SegmentObservation::with_residency).
const DEFAULT_RESIDENCY_BATCHES: f64 = 64.0;

/// Fraction of per-rank memory ([`CostModel::mem_per_rank`]) the
/// replicas of one placement may occupy.
const REPLICA_MEM_FRACTION: f64 = 0.5;

/// Observed serving signal for one segment — size and probe heat, both
/// from one [`IndexReader::segment_stats`] entry — plus the batches that
/// heat covers: what [`plan_placement`] prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentObservation {
    /// Segment id (stable across commits and placements).
    pub segment_id: u64,
    /// Stored rows — what a replica install ships.
    pub rows: usize,
    /// Probe calls that hit this segment (one per query per batch).
    pub probes: u64,
    /// Candidate rows those probes produced — the segment's fetch traffic.
    pub candidate_rows: u64,
    /// Query batches the heat covers.
    pub batches_observed: u64,
    /// Expected batches until churn (compaction or deletion) invalidates
    /// a replica of this segment; `None` uses the default horizon of 64
    /// batches. Fresh segments get small values, settled ones large.
    pub expected_batches_resident: Option<f64>,
}

impl SegmentObservation {
    /// The observation of one segment's stats, whose heat covers
    /// `batches_observed` batches. A never-probed segment reads cold,
    /// and [`plan_placement`] always shards it.
    pub fn from_stats(stats: &SegmentStats, batches_observed: u64) -> Self {
        SegmentObservation {
            segment_id: stats.segment_id,
            rows: stats.rows,
            probes: stats.probes,
            candidate_rows: stats.candidates,
            batches_observed,
            expected_batches_resident: None,
        }
    }

    /// Set the churn horizon for this segment.
    pub fn with_residency(mut self, batches: f64) -> Self {
        self.expected_batches_resident = Some(batches);
        self
    }
}

/// Modeled per-batch per-rank seconds to serve a segment `(sharded,
/// replicated)`. Sharded, the foreign fraction of its observed candidate
/// rows crosses the wire every batch; replicated, every rank installs
/// the foreign fraction of all stored rows once, amortized over the
/// batches the replica stays valid.
fn placement_costs(
    model: &CostModel,
    ranks: usize,
    row_words: usize,
    obs: &SegmentObservation,
) -> (f64, f64) {
    let p = ranks as f64;
    let row_bytes = (row_words * 8) as f64;
    let rows_per_batch = obs.candidate_rows as f64 / obs.batches_observed.max(1) as f64;
    let horizon = obs.expected_batches_resident.unwrap_or(DEFAULT_RESIDENCY_BATCHES).max(1.0);
    let shard = model.beta * rows_per_batch * row_bytes * (p - 1.0) / p;
    let replicate = model.beta * obs.rows as f64 * row_bytes * (p - 1.0) / p / horizon;
    (shard, replicate)
}

/// Price each observed segment's two serving strategies against the
/// α–β–γ machine `model` — a [`Machine`](gas_dstsim::machine::Machine)
/// preset's `cost_model()`, or a fit of measured cost reports — and
/// return one [`SegmentPlacement`] per observation, in input order: the
/// vector [`install_placement`] takes.
///
/// `ranks` is the communicator size the placement serves on and
/// `row_words` the words per shipped row (signature words plus the key
/// word — what both the keyed fetch and a replica install move per row).
/// Replication must win on price *and* carry observed heat (a
/// never-probed segment stays sharded no matter its size), and the
/// winners are admitted hottest-benefit-first (ties by segment id) until
/// half of [`CostModel::mem_per_rank`] is spent.
pub fn plan_placement(
    model: &CostModel,
    ranks: usize,
    row_words: usize,
    observations: &[SegmentObservation],
) -> IndexResult<Vec<SegmentPlacement>> {
    model.validate()?;
    if ranks == 0 || row_words == 0 {
        return Err(IndexError::InvalidConfig(
            "placement needs at least one rank and a positive row width".to_string(),
        ));
    }
    let costs: Vec<(f64, f64)> =
        observations.iter().map(|obs| placement_costs(model, ranks, row_words, obs)).collect();
    let mut placements: Vec<SegmentPlacement> = observations
        .iter()
        .zip(&costs)
        .map(|(obs, &(shard, replicate))| {
            if obs.probes > 0 && replicate < shard {
                SegmentPlacement::Replicated
            } else {
                SegmentPlacement::Sharded
            }
        })
        .collect();

    // Enforce the memory budget: keep the replicas with the largest
    // modeled benefit, demote the rest back to sharded.
    let budget_bytes = model.mem_per_rank as f64 * REPLICA_MEM_FRACTION;
    let benefit = |i: usize| costs[i].0 - costs[i].1;
    let mut candidates: Vec<usize> =
        (0..placements.len()).filter(|&i| placements[i] == SegmentPlacement::Replicated).collect();
    candidates.sort_by(|&a, &b| {
        benefit(b)
            .total_cmp(&benefit(a))
            .then(observations[a].segment_id.cmp(&observations[b].segment_id))
    });
    let mut spent = 0.0;
    for i in candidates {
        let bytes = observations[i].rows as f64 * (row_words * 8) as f64;
        if spent + bytes <= budget_bytes {
            spent += bytes;
        } else {
            placements[i] = SegmentPlacement::Sharded;
        }
    }

    let replicated = placements.iter().filter(|&&pl| pl == SegmentPlacement::Replicated).count();
    gas_obs::counter("gas_plan_plans_total").inc();
    gas_obs::gauge("gas_plan_replicated_segments").set(replicated as i64);
    gas_obs::gauge("gas_plan_sharded_segments").set((placements.len() - replicated) as i64);
    Ok(placements)
}

/// Accounting of one [`install_placement`] round, per rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlacementInstallStats {
    /// Segments the plan replicates (installed or reused).
    pub replicated_segments: usize,
    /// Of those, segments whose replica was carried over from `prior`
    /// without touching the wire (segments are immutable once sealed,
    /// so a matching id means matching bytes).
    pub reused_segments: usize,
    /// Rows newly assembled into full local replicas this round.
    pub installed_rows: usize,
    /// Resident bytes of all replica matrices after the install (in
    /// addition to the slot copies this rank keeps for every segment).
    pub replica_bytes: usize,
    /// Wire bytes this rank received in the install allgather — equal
    /// to the simulator's `bytes_received` for the round.
    pub install_bytes: usize,
    /// Always 1: the install is a single allgather no matter how many
    /// segments change placement (zero-payload when nothing does), so
    /// plan changes never reintroduce O(#segments) collectives.
    pub collective_calls: usize,
}

/// Collectively install a placement over the ranks of `world`: ship
/// every newly-replicated segment's rows in **one** allgather so each
/// rank can assemble full local replicas, and carry unchanged replicas
/// over from `prior` for free (segments are immutable once sealed, so
/// matching ids mean matching bytes — re-planning an overlapping
/// placement only pays for the delta).
///
/// The new layout keeps `prior`'s slot table (else the plain
/// [`ServingLayout::sharded`] one of `world`), so installing on a
/// replicated layout, over its survivor subgroup, serves mixed placement
/// *under failover*. Rows ship by the executor's rule — a slot's serving
/// owner ships it — so a lost slot leaves a hole in every replica.
///
/// Every rank must call this with the identical `placements` (one entry
/// per reader segment, in segment order); the single allgather runs even
/// when nothing ships, so the collective schedule stays in lockstep and
/// deterministic. Row streams use the `[key, row...]` framing of the
/// keyed exchange and are validated the same way — a hole in an
/// assembled replica is typed corruption, never a panic.
pub fn install_placement(
    world: &Communicator,
    reader: &IndexReader,
    placements: &[SegmentPlacement],
    prior: Option<&ServingLayout>,
) -> IndexResult<(ServingLayout, PlacementInstallStats)> {
    let me = world.rank();
    let segments = reader.segments();
    if placements.len() != segments.len() {
        return Err(IndexError::InvalidQuery(format!(
            "placement has {} entries for a snapshot of {} segments",
            placements.len(),
            segments.len()
        )));
    }
    let mut layout = match prior {
        Some(prev) => ServingLayout::over(prev.slots.clone(), reader),
        None => ServingLayout::sharded(world, reader, 1),
    };
    let mut stats = PlacementInstallStats::default();

    // Reuse first: any replicated segment whose id had a replica in the
    // prior state keeps it without touching the wire.
    let mut installing: Vec<usize> = Vec::new();
    for (seg_idx, seg) in segments.iter().enumerate() {
        if placements[seg_idx] != SegmentPlacement::Replicated {
            continue;
        }
        stats.replicated_segments += 1;
        match prior.and_then(|prev| prev.replicas.get(&seg.id())) {
            Some(matrix) => {
                layout.replicas.insert(seg.id(), matrix.clone());
                stats.reused_segments += 1;
            }
            None => installing.push(seg_idx),
        }
    }

    // One allgather ships every installing segment's rows; each travels
    // once per other rank, what the keyed exchange charges to fetch it.
    let install_keys = installing.iter().flat_map(|&seg_idx| {
        (0..segments[seg_idx].n_rows() as u32).map(move |local| row_key(seg_idx, local))
    });
    let shipped = layout.allgather_rows(world, install_keys)?;
    stats.collective_calls += 1;
    stats.install_bytes += foreign_words(&shipped, me) * 8;

    // Assemble each installing segment from the streams (own rows
    // included): sorted by key, a complete one is the run
    // `row_key(seg_idx, 0..n_rows)`.
    let mut rows = layout.framed_rows(&shipped, "placement-install")?;
    rows.sort_unstable_by_key(|&(key, _)| key);
    rows.dedup_by_key(|&mut (key, _)| key);
    for seg_idx in installing {
        let n_rows = segments[seg_idx].n_rows();
        let run = &rows[rows.partition_point(|&(key, _)| key < row_key(seg_idx, 0))..];
        let hole = (0..n_rows)
            .find(|&local| run.get(local).map(|row| row.0) != Some(row_key(seg_idx, local as u32)));
        if let Some(local) = hole {
            return Err(IndexError::Corrupt {
                context: format!(
                    "no rank shipped row {local} of segment index {seg_idx} during install"
                ),
            });
        }
        stats.installed_rows += n_rows;
        let matrix = run[..n_rows].iter().flat_map(|&(_, row)| row.iter().copied()).collect();
        layout.replicas.insert(segments[seg_idx].id(), matrix);
    }
    stats.replica_bytes = layout.replicas.values().map(|m| m.len() * 8).sum();

    gas_obs::counter("gas_plan_install_bytes_total").add(stats.install_bytes as u64);
    if me == 0 {
        gas_obs::counter("gas_plan_installs_total").inc();
        gas_obs::counter("gas_plan_installed_rows_total").add(stats.installed_rows as u64);
    }
    Ok((layout, stats))
}

/// Serve a batch of top-k queries under an installed layout: replicated
/// segments resolve every candidate locally, sharded ones go through
/// the keyed exchange — in the **same** single request/fetch pair, so
/// the batch still costs five collectives (six with exact re-ranking)
/// no matter how the plan splits the snapshot.
///
/// Band probing stays band-sharded for every segment regardless of its
/// placement (probe work stays balanced at `~b/p` tables per rank, and
/// the candidate sets — hence the answers — are those of
/// [`dist_query_reader_batch_stats`] by construction); only *row
/// resolution* changes. A replicated segment's candidates never enter
/// the `wanted` list, so its per-batch fetch traffic is exactly zero —
/// the term [`plan_placement`] trades against the one-time install cost.
/// Answers are bit-identical to the keyed path and the single-rank
/// engine under every placement; the `query_serving` proptests pin that
/// across random placements, with and without a crashed rank.
///
/// `world` is the communicator the layout was installed over, and
/// `planned` must have been installed (every rank with the identical
/// plan) against this same snapshot — a mismatch is a typed error on
/// every rank before any collective runs. A layout with a lost slot
/// degrades exactly as [`dist_query_reader_batch_replicated`] does: one
/// collective dearer, with the loss accounted in the [`DegradedReport`].
pub fn dist_query_reader_batch_planned(
    world: &Communicator,
    reader: &IndexReader,
    collection: Option<&SampleCollection>,
    queries: Option<&[Vec<u64>]>,
    opts: &QueryOptions,
    planned: &ServingLayout,
) -> IndexResult<(Vec<Vec<Neighbor>>, DegradedReport, DistQueryStats)> {
    execute(world, reader, collection, queries, opts, planned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexConfig;
    use crate::lifecycle::IndexWriter;
    use crate::query::QueryEngine;
    use crate::service::IndexOptions;
    use gas_core::minhash::SignerKind;
    use gas_dstsim::runtime::Runtime;

    fn workload() -> SampleCollection {
        let mut samples = Vec::new();
        for f in 0..4u64 {
            let core: Vec<u64> = (f * 50_000..f * 50_000 + 500).collect();
            for m in 0..5u64 {
                let mut s = core.clone();
                s.extend(f * 50_000 + 30_000 + m * 25..f * 50_000 + 30_000 + m * 25 + 25);
                samples.push(s);
            }
        }
        SampleCollection::from_sets(samples).unwrap()
    }

    /// A segmented snapshot over `collection`: `segments` commits of
    /// near-equal size, with `deletes` tombstoned once committed.
    fn segmented_writer(
        collection: &SampleCollection,
        config: &IndexConfig,
        segments: usize,
        deletes: &[u32],
    ) -> IndexWriter {
        let mut writer = IndexOptions::from_config(*config).open_writer().unwrap();
        let n = collection.n();
        let mut start = 0usize;
        for s in 0..segments {
            let end = start + (n - start) / (segments - s);
            for i in start..end {
                writer.add(format!("s{i}"), collection.sample(i).to_vec()).unwrap();
            }
            writer.commit().unwrap();
            for &id in deletes {
                if id < writer.id_bound() && !writer.reader().is_deleted(id) {
                    writer.delete(id).unwrap();
                }
            }
            writer.commit().unwrap();
            start = end;
        }
        writer
    }

    #[test]
    fn band_shard_is_balanced_whenever_bands_cover_ranks() {
        // Probing is only distributed if every rank owns some band, and
        // balanced if ownership counts differ by at most one.
        for p in [2usize, 4, 6, 8, 12] {
            for bands in [16usize, 32, 64] {
                let mut owners = vec![0usize; p];
                for band in 0..bands {
                    let s = band_shard(band, p);
                    assert!(s < p);
                    owners[s] += 1;
                }
                let (lo, hi) = (owners.iter().min().unwrap(), owners.iter().max().unwrap());
                assert!(*lo > 0, "idle rank for p={p}, bands={bands}: {owners:?}");
                assert!(hi - lo <= 1, "imbalance for p={p}, bands={bands}: {owners:?}");
            }
        }
    }

    #[test]
    fn row_keys_round_trip_and_order_by_segment_then_row() {
        for seg in [0usize, 1, 7, 4_000_000_000] {
            for local in [0u32, 1, 17, u32::MAX] {
                assert_eq!(split_row_key(row_key(seg, local)), (seg, local));
            }
        }
        // Sorting keyed requests groups by segment, then local row —
        // the dedup and the owner's ship order rely on it.
        assert!(row_key(0, u32::MAX) < row_key(1, 0));
        assert!(row_key(3, 5) < row_key(3, 6));
    }

    #[test]
    fn partial_stream_round_trips_and_rejects_garbage() {
        let partials = vec![vec![(192u32, 3u32), (10, 7)], vec![], vec![(1, 1)]];
        let stream = encode_partials(&partials);
        let back = decode_partials(&stream, 3).unwrap();
        assert_eq!(back, partials);
        assert!(decode_partials(&stream[..stream.len() - 1], 3).is_err());
        assert!(decode_partials(&stream, 4).is_err());
        assert!(decode_partials(&stream, 2).is_err());
        assert!(decode_partials(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn signature_shards_partition_the_matrix() {
        let collection = workload();
        let index = IndexOptions::from_config(IndexConfig::default().with_signature_len(64))
            .build_index(&collection)
            .unwrap();
        for p in [1usize, 3, 4, 7] {
            let shards: Vec<SignatureShard> =
                (0..p).map(|r| SignatureShard::for_segment(&index.segments()[0], r, p)).collect();
            // Every row is owned by exactly one shard and round-trips.
            let total: usize = shards.iter().map(SignatureShard::n_rows).sum();
            assert_eq!(total, index.n_rows(), "p={p}");
            for id in 0..index.n_rows() as u32 {
                let owner = sample_shard(id as usize, p);
                assert!(shards[owner].owns(id));
                assert_eq!(
                    shards[owner].row(id),
                    index.segments()[0].signature(id as usize).values()
                );
                for (r, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.owns(id), r == owner);
                }
            }
            // Balanced to within one row; bytes match the row count.
            let (lo, hi) = (
                shards.iter().map(SignatureShard::n_rows).min().unwrap(),
                shards.iter().map(SignatureShard::n_rows).max().unwrap(),
            );
            assert!(hi - lo <= 1, "p={p}: shard rows {lo}..{hi}");
            for shard in &shards {
                assert_eq!(shard.bytes(), shard.n_rows() * 64 * 8);
            }
        }
    }

    #[test]
    fn reader_shards_resolve_keys_and_reject_out_of_range_ones() {
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(32);
        let writer = segmented_writer(&collection, &config, 3, &[]);
        let reader = writer.reader();
        for p in [1usize, 2, 5] {
            let all: Vec<ReaderShards> =
                (0..p).map(|r| ReaderShards::build(&reader, r, p)).collect();
            assert_eq!(all[0].n_segments(), 3);
            // Shards partition every segment's rows; keyed resolution
            // round-trips byte-identically to the segment's matrix.
            let total: usize = all.iter().map(ReaderShards::n_rows).sum();
            assert_eq!(total, reader.n_rows(), "p={p}");
            for (seg_idx, seg) in reader.segments().iter().enumerate() {
                for local in 0..seg.n_rows() as u32 {
                    let key = row_key(seg_idx, local);
                    let owner = sample_shard(local as usize, p);
                    for (r, shards) in all.iter().enumerate() {
                        assert_eq!(shards.owns_key(key).unwrap(), r == owner);
                    }
                    assert_eq!(all[owner].row(key), seg.signature(local as usize).values());
                }
            }
            // Out-of-range keys are typed corruption, never a panic.
            let bad_seg = row_key(3, 0);
            let bad_row = row_key(0, reader.segments()[0].n_rows() as u32);
            assert!(matches!(all[0].owns_key(bad_seg), Err(IndexError::Corrupt { .. })));
            assert!(matches!(all[0].owns_key(bad_row), Err(IndexError::Corrupt { .. })));
        }
    }

    #[test]
    #[should_panic]
    fn signature_shard_row_panics_on_foreign_ids() {
        let collection = workload();
        let index = IndexOptions::from_config(IndexConfig::default().with_signature_len(16))
            .build_index(&collection)
            .unwrap();
        let shard = SignatureShard::for_segment(&index.segments()[0], 0, 2);
        let _ = shard.row(1); // owned by rank 1
    }

    #[test]
    fn distributed_answers_equal_single_rank_answers() {
        let collection = workload();
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            let config = IndexConfig::default()
                .with_signature_len(128)
                .with_threshold(0.4)
                .with_signer(signer);
            let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
            let queries: Vec<Vec<u64>> =
                (0..6).map(|i| collection.sample(i * 3).to_vec()).collect();

            for rerank in [false, true] {
                let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
                let engine = QueryEngine::snapshot_with_collection(index.clone(), &collection);
                let reference = engine.query_batch(&queries, &opts).unwrap();

                for p in [1usize, 3, 5] {
                    let out = Runtime::new(p)
                        .run(|ctx| {
                            let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                            ctx.expect_ok(
                                "dist_query_reader_batch_stats",
                                dist_query_reader_batch_stats(
                                    ctx.world(),
                                    &index,
                                    Some(&collection),
                                    q,
                                    &opts,
                                ),
                            )
                        })
                        .unwrap();
                    for (rank, (answers, stats)) in out.results.iter().enumerate() {
                        assert_eq!(
                            answers, &reference,
                            "p={p}, rank={rank}, rerank={rerank}, signer={signer}: \
                             distributed answers diverge"
                        );
                        // The shard holds ~n/p rows, never the full matrix
                        // (beyond p = 1), and fetched rows stay within the
                        // non-owned population.
                        assert_eq!(stats.replicated_bytes, index.n_rows() * 128 * 8);
                        assert!(stats.shard_rows <= index.n_rows().div_ceil(p));
                        assert_eq!(stats.shard_bytes, stats.shard_rows * 128 * 8);
                        assert!(stats.fetched_rows <= index.n_rows() - stats.shard_rows);
                        assert_eq!(stats.fetched_bytes, stats.fetched_rows * 128 * 8);
                        // The collectives budget: constant per batch, and
                        // the allgather fan-out is recorded, not hidden.
                        assert_eq!(stats.collective_calls, if rerank { 6 } else { 5 });
                        assert!(
                            stats.fetch_bytes
                                >= stats.fetched_bytes.saturating_sub(stats.fetched_rows * 8)
                        );
                        // One segment → one breakdown entry covering every
                        // candidate exactly once.
                        assert_eq!(stats.per_segment.len(), 1);
                        let seg = &stats.per_segment[0];
                        assert_eq!(seg.shard_rows, stats.shard_rows);
                        assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                        assert_eq!(seg.fetched_rows, stats.fetched_rows);
                        if p > 1 {
                            assert!(
                                stats.shard_bytes * 2 < stats.replicated_bytes,
                                "p={p}: shard {} vs replicated {}",
                                stats.shard_bytes,
                                stats.replicated_bytes
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_phase_wire_bytes_sum_to_the_cost_report_exactly() {
        // The satellite bugfix pin: the phase byte counters must account
        // for every wire byte the simulator charged this rank — no
        // per-segment double counting, no missing broadcast bytes, no
        // uncharged dropped-row allgather — under every layout. The
        // collective count must match the tracker's too.
        use gas_dstsim::RankFaults;
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let writer = segmented_writer(&collection, &config, 4, &[2, 9]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..5).map(|i| collection.sample(i * 4).to_vec()).collect();
        // (replication, crashed rank, collectives beyond the keyed
        // budget): the keyed entry point, then the replicated one
        // fault-free, failing over with full coverage, and degraded.
        let layouts =
            [(None, None, 0), (Some(2), None, 0), (Some(2), Some(2), 0), (Some(1), Some(2), 1)];
        for rerank in [false, true] {
            let opts = QueryOptions { top_k: 4, rerank_exact: rerank, ..Default::default() };
            for p in [1usize, 2, 4] {
                for (replication, crashed, extra) in layouts {
                    if crashed.is_some_and(|r| r >= p) {
                        continue;
                    }
                    let faults =
                        crashed.map_or(RankFaults::none(), |r| RankFaults::none().crash(r));
                    let out = Runtime::new(p)
                        .with_faults(faults)
                        .run(|ctx| {
                            let world = ctx.world();
                            let ingress = world.alive_world_ranks().first() == Some(&ctx.rank());
                            let q = if ingress { Some(&queries[..]) } else { None };
                            match replication {
                                None => dist_query_reader_batch_stats(
                                    world,
                                    &reader,
                                    Some(&collection),
                                    q,
                                    &opts,
                                ),
                                Some(c) => dist_query_reader_batch_replicated(
                                    world,
                                    &reader,
                                    Some(&collection),
                                    q,
                                    &opts,
                                    c,
                                )
                                .map(|(answers, _, stats)| (answers, stats)),
                            }
                        })
                        .unwrap();
                    for (rank, (result, report)) in out.results.iter().zip(&out.reports).enumerate()
                    {
                        if crashed == Some(rank) {
                            assert!(result.is_err(), "the crashed rank must error typed");
                            continue;
                        }
                        let (_, stats) = result.as_ref().expect("survivors answer");
                        let case = format!(
                            "p={p}, rank={rank}, rerank={rerank}, c={replication:?}, \
                             crashed={crashed:?}"
                        );
                        assert_eq!(
                            stats.wire_bytes() as u64,
                            report.bytes_received,
                            "{case}: phase bytes diverge from the wire"
                        );
                        assert_eq!(
                            stats.collective_calls as u64, report.collectives,
                            "{case}: collective count diverges"
                        );
                        assert_eq!(
                            stats.collective_calls,
                            if rerank { 6 } else { 5 } + extra,
                            "{case}: only a lost slot may cost a collective more"
                        );
                        assert_eq!(
                            stats.wire_bytes(),
                            stats.bcast_bytes
                                + stats.request_bytes
                                + stats.fetch_bytes
                                + stats.merge_bytes
                        );
                        // Four segments, one breakdown entry each, candidates
                        // partitioned into owned + fetched.
                        assert_eq!(stats.per_segment.len(), 4);
                        for seg in &stats.per_segment {
                            assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn keyed_exchange_matches_the_per_segment_reference() {
        // Same answers, same fetched row content, constant vs linear
        // collective counts — the tentpole equivalence on a concrete
        // multi-segment snapshot with tombstones, both signers.
        let collection = workload();
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            let config = IndexConfig::default()
                .with_signature_len(64)
                .with_threshold(0.4)
                .with_signer(signer);
            let segments = 5usize;
            let writer = segmented_writer(&collection, &config, segments, &[1, 7, 13]);
            let reader = writer.reader();
            let queries: Vec<Vec<u64>> =
                (0..6).map(|i| collection.sample(i * 3).to_vec()).collect();
            let opts = QueryOptions { top_k: 5, rerank_exact: true, ..Default::default() };
            let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
                .query_batch(&queries, &opts)
                .unwrap();
            for p in [1usize, 3, 4] {
                let keyed = Runtime::new(p)
                    .run(|ctx| {
                        let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                        ctx.expect_ok(
                            "keyed",
                            dist_query_reader_batch_stats(
                                ctx.world(),
                                &reader,
                                Some(&collection),
                                q,
                                &opts,
                            ),
                        )
                    })
                    .unwrap();
                let legacy = Runtime::new(p)
                    .run(|ctx| {
                        let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                        ctx.expect_ok(
                            "per-segment",
                            dist_query_reader_batch_stats_per_segment(
                                ctx.world(),
                                &reader,
                                Some(&collection),
                                q,
                                &opts,
                            ),
                        )
                    })
                    .unwrap();
                for (rank, ((ka, ks), (la, ls))) in
                    keyed.results.iter().zip(&legacy.results).enumerate()
                {
                    assert_eq!(ka, &reference, "keyed diverges (p={p}, rank={rank}, {signer})");
                    assert_eq!(la, &reference, "legacy diverges (p={p}, rank={rank}, {signer})");
                    // Identical shipped row content (framing may differ).
                    assert_eq!(ks.fetched_rows, ls.fetched_rows);
                    assert_eq!(ks.fetched_bytes, ls.fetched_bytes);
                    assert_eq!(ks.fetched_fingerprint, ls.fetched_fingerprint);
                    assert_eq!(ks.per_segment, ls.per_segment);
                    // The collectives budget: constant vs O(#segments).
                    assert_eq!(ks.collective_calls, 6);
                    assert_eq!(ls.collective_calls, 6 + 2 * (segments - 1));
                }
            }
        }
    }

    #[test]
    fn missing_queries_on_root_errors_on_every_rank_without_hanging() {
        // Every rank calls the collective; rank 0 has no query batch. The
        // validity pre-broadcast must turn that into a typed error on all
        // ranks instead of deadlocking ranks 1..p in the signature bcast.
        let index = IndexOptions::from_config(IndexConfig::default().with_signature_len(16))
            .build_index(&SampleCollection::from_sorted_sets(vec![vec![1, 2, 3]]).unwrap())
            .unwrap();
        let out = Runtime::new(3)
            .run(|ctx| {
                dist_query_reader_batch(ctx.world(), &index, None, None, &QueryOptions::default())
            })
            .unwrap();
        for result in out.results {
            assert!(matches!(result, Err(IndexError::InvalidQuery(_))), "expected typed error");
        }
    }

    // ---- chaos drills: crash failover and degraded accounting ----

    #[test]
    fn replicated_path_is_bit_identical_fault_free() {
        // With no faults the replicated path must be a transparent
        // superset of the plain keyed path: same answers, degraded
        // false, nothing lost.
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let writer = segmented_writer(&collection, &config, 3, &[2, 9]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..4).map(|i| collection.sample(i * 5).to_vec()).collect();
        let opts = QueryOptions { top_k: 5, ..Default::default() };

        for p in [1usize, 3, 4] {
            let reference = Runtime::new(p)
                .run(|ctx| {
                    let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                    ctx.expect_ok(
                        "plain",
                        dist_query_reader_batch(ctx.world(), &reader, None, q, &opts),
                    )
                })
                .unwrap()
                .results;
            for replication in [1usize, 2] {
                // Replicated batches move the `gas_dist_*` registry like
                // every other layout (`≥`: the registry is process-global
                // and parallel tests add to it too).
                let counters = [
                    "gas_dist_bcast_bytes_total",
                    "gas_dist_request_bytes_total",
                    "gas_dist_fetch_bytes_total",
                    "gas_dist_merge_bytes_total",
                    "gas_dist_query_batches_total",
                    "gas_dist_collectives_total",
                ];
                let before = counters.map(|name| gas_obs::counter(name).get());
                let out = Runtime::new(p)
                    .run(|ctx| {
                        let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                        ctx.expect_ok(
                            "replicated",
                            dist_query_reader_batch_replicated(
                                ctx.world(),
                                &reader,
                                None,
                                q,
                                &opts,
                                replication,
                            ),
                        )
                    })
                    .unwrap();
                for (rank, (answers, report, _)) in out.results.iter().enumerate() {
                    assert_eq!(answers, &reference[0], "p={p}, c={replication}, rank={rank}");
                    assert!(!report.degraded);
                    assert!(report.failed_ranks.is_empty());
                    assert!(report.lost_bands.is_empty());
                    assert_eq!(report.lost_rows, 0);
                }
                let sum = |f: fn(&DistQueryStats) -> usize| -> u64 {
                    out.results.iter().map(|(_, _, stats)| f(stats) as u64).sum()
                };
                let moved = [
                    sum(|s| s.bcast_bytes),
                    sum(|s| s.request_bytes),
                    sum(|s| s.fetch_bytes),
                    sum(|s| s.merge_bytes),
                    1,
                    out.results[0].2.collective_calls as u64,
                ];
                for ((name, before), moved) in counters.iter().zip(before).zip(moved) {
                    let delta = gas_obs::counter(name).get() - before;
                    assert!(
                        delta >= moved,
                        "p={p}, c={replication}: {name} moved {delta} < {moved}"
                    );
                }
            }
        }
    }

    #[test]
    fn crashed_rank_with_surviving_replicas_answers_bit_identically() {
        // The acceptance pin: one crashed rank, replication 2 — every
        // band and row still has a surviving replica, so the survivors'
        // answers equal the fault-free run exactly, degraded stays
        // false, and the crashed rank errors typed.
        use gas_dstsim::{RankFaults, SimError};
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let writer = segmented_writer(&collection, &config, 2, &[3]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..4).map(|i| collection.sample(i * 5).to_vec()).collect();
        let opts = QueryOptions { top_k: 5, ..Default::default() };
        let p = 4;

        let reference = Runtime::new(p)
            .run(|ctx| {
                let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                ctx.expect_ok(
                    "fault-free",
                    dist_query_reader_batch_replicated(ctx.world(), &reader, None, q, &opts, 2),
                )
            })
            .unwrap()
            .results;

        for crashed in [1usize, 3] {
            let out = Runtime::new(p)
                .with_faults(RankFaults::none().crash(crashed))
                .run(|ctx| {
                    let q = if ctx.world().alive_world_ranks().first() == Some(&ctx.rank()) {
                        Some(&queries[..])
                    } else {
                        None
                    };
                    dist_query_reader_batch_replicated(ctx.world(), &reader, None, q, &opts, 2)
                })
                .unwrap();
            for (rank, result) in out.results.iter().enumerate() {
                if rank == crashed {
                    assert!(
                        matches!(
                            result,
                            Err(IndexError::Sim(SimError::RankCrashed { rank: r })) if *r == rank
                        ),
                        "crashed rank must error typed, got {result:?}"
                    );
                    continue;
                }
                let (answers, report, _) = result.as_ref().expect("survivor must answer");
                assert_eq!(
                    answers, &reference[0].0,
                    "crashed={crashed}, rank={rank}: failover answers diverge"
                );
                assert!(!report.degraded, "full replica coverage is not degraded");
                assert_eq!(report.failed_ranks, vec![crashed]);
                assert!(report.lost_bands.is_empty());
                assert_eq!(report.lost_rows, 0);
            }
        }
    }

    #[test]
    fn crash_without_replicas_degrades_typed_with_exact_accounting() {
        // replication 1: the crashed rank's slot is lost. The round
        // must still complete — no panic, no hang — with the lost bands
        // named exactly and the flag raised on every survivor.
        use gas_dstsim::RankFaults;
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let writer = segmented_writer(&collection, &config, 2, &[]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..4).map(|i| collection.sample(i * 5).to_vec()).collect();
        let opts = QueryOptions { top_k: 5, ..Default::default() };
        let (p, crashed) = (4usize, 2usize);

        let out = Runtime::new(p)
            .with_faults(RankFaults::none().crash(crashed))
            .run(|ctx| {
                let q = if ctx.world().alive_world_ranks().first() == Some(&ctx.rank()) {
                    Some(&queries[..])
                } else {
                    None
                };
                dist_query_reader_batch_replicated(ctx.world(), &reader, None, q, &opts, 1)
            })
            .unwrap();
        let bands = reader.params().bands();
        let expected_lost: Vec<usize> = (0..bands).filter(|b| b % p == crashed).collect();
        assert!(!expected_lost.is_empty(), "the grid must actually lose bands");
        let mut survivor_answers = Vec::new();
        for (rank, result) in out.results.iter().enumerate() {
            if rank == crashed {
                assert!(result.is_err());
                continue;
            }
            let (answers, report, _) = result.as_ref().expect("survivor must answer degraded");
            assert!(report.degraded, "lost coverage must raise the flag");
            assert_eq!(report.failed_ranks, vec![crashed]);
            assert_eq!(report.lost_bands, expected_lost);
            survivor_answers.push(answers.clone());
        }
        // Survivors agree on the (partial) answers: the degraded round
        // is still deterministic.
        for answers in &survivor_answers[1..] {
            assert_eq!(answers, &survivor_answers[0]);
        }
    }

    #[test]
    fn plain_dist_path_with_a_crashed_rank_errors_typed_everywhere() {
        // The satellite pin at the index level: a failed collective in
        // the unreplicated serving path becomes a typed IndexError on
        // every rank — never a panic, never a poisoned process.
        use gas_dstsim::RankFaults;
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(32);
        let writer = segmented_writer(&collection, &config, 2, &[]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..2).map(|i| collection.sample(i).to_vec()).collect();
        let opts = QueryOptions { top_k: 3, ..Default::default() };

        let out = Runtime::new(4)
            .with_faults(RankFaults::none().crash(1).with_recv_timeout(50_000))
            .run(|ctx| {
                let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                dist_query_reader_batch(ctx.world(), &reader, None, q, &opts)
            })
            .unwrap();
        for (rank, result) in out.results.iter().enumerate() {
            assert!(
                matches!(result, Err(IndexError::Sim(_))),
                "rank {rank} must fail typed, got ok={}",
                result.is_ok()
            );
        }
    }

    // ---- planned mixed placement ----

    /// Deterministic mixed placement over `segments`: replicate roughly
    /// every other segment, seeded so different calls vary the pattern.
    fn mixed_placement(segments: usize, seed: usize) -> Vec<SegmentPlacement> {
        (0..segments)
            .map(|i| {
                if (i + seed).is_multiple_of(2) {
                    SegmentPlacement::Replicated
                } else {
                    SegmentPlacement::Sharded
                }
            })
            .collect()
    }

    #[test]
    fn planned_placement_answers_match_keyed_and_single_rank() {
        // The tentpole equivalence: under every placement — all
        // sharded, all replicated, mixed — the planned path's answers
        // are bit-identical to the keyed path's (itself pinned to the
        // single-rank engine), batch collectives stay constant, and a
        // replicated segment's fetch traffic is exactly zero.
        let collection = workload();
        for signer in [SignerKind::KMins, SignerKind::Oph] {
            let config = IndexConfig::default()
                .with_signature_len(64)
                .with_threshold(0.4)
                .with_signer(signer);
            let segments = 5usize;
            let writer = segmented_writer(&collection, &config, segments, &[1, 7, 13]);
            let reader = writer.reader();
            let queries: Vec<Vec<u64>> =
                (0..6).map(|i| collection.sample(i * 3).to_vec()).collect();
            for rerank in [false, true] {
                let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
                let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
                    .query_batch(&queries, &opts)
                    .unwrap();
                for p in [1usize, 3, 4] {
                    for placements in [
                        vec![SegmentPlacement::Sharded; segments],
                        vec![SegmentPlacement::Replicated; segments],
                        mixed_placement(segments, 0),
                        mixed_placement(segments, 1),
                    ] {
                        let out = Runtime::new(p)
                            .run(|ctx| {
                                let (planned, install) = ctx.expect_ok(
                                    "install",
                                    install_placement(ctx.world(), &reader, &placements, None),
                                );
                                let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                                let (answers, degraded, stats) = ctx.expect_ok(
                                    "planned",
                                    dist_query_reader_batch_planned(
                                        ctx.world(),
                                        &reader,
                                        Some(&collection),
                                        q,
                                        &opts,
                                        &planned,
                                    ),
                                );
                                assert_eq!(degraded, DegradedReport::default(), "fault-free");
                                (answers, stats, install)
                            })
                            .unwrap();
                        for (rank, (answers, stats, install)) in out.results.iter().enumerate() {
                            assert_eq!(
                                answers, &reference,
                                "planned diverges (p={p}, rank={rank}, rerank={rerank}, \
                                 {signer}, {placements:?})"
                            );
                            assert_eq!(install.collective_calls, 1);
                            assert_eq!(stats.collective_calls, if rerank { 6 } else { 5 });
                            assert_eq!(stats.per_segment.len(), segments);
                            for (seg_idx, seg) in stats.per_segment.iter().enumerate() {
                                assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                                if placements[seg_idx] == SegmentPlacement::Replicated {
                                    assert_eq!(
                                        seg.fetched_rows, 0,
                                        "replicated segment fetched rows over the wire"
                                    );
                                }
                            }
                            // All-replicated serving fetches nothing at all.
                            if placements.iter().all(|&pl| pl == SegmentPlacement::Replicated) {
                                assert_eq!(stats.fetched_rows, 0);
                                assert_eq!(stats.fetch_bytes, 0);
                            }
                            // All-sharded install ships nothing at all.
                            if placements.iter().all(|&pl| pl == SegmentPlacement::Sharded) {
                                assert_eq!(install.install_bytes, 0);
                                assert_eq!(install.installed_rows, 0);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planned_install_and_batch_bytes_sum_to_the_cost_report_exactly() {
        // The wire-accounting pin for the planned path: install bytes
        // plus every batch's phase bytes equal the simulator's per-rank
        // bytes_received, and the collective counts match the tracker.
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let writer = segmented_writer(&collection, &config, 4, &[2, 9]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..5).map(|i| collection.sample(i * 4).to_vec()).collect();
        let placements = mixed_placement(4, 0);
        for rerank in [false, true] {
            let opts = QueryOptions { top_k: 4, rerank_exact: rerank, ..Default::default() };
            for p in [1usize, 2, 4] {
                let batches = 3usize;
                let out = Runtime::new(p)
                    .run(|ctx| {
                        let (planned, install) = ctx.expect_ok(
                            "install",
                            install_placement(ctx.world(), &reader, &placements, None),
                        );
                        let mut wire = install.install_bytes;
                        let mut collectives = install.collective_calls;
                        for _ in 0..batches {
                            let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                            let (_, _, stats) = ctx.expect_ok(
                                "planned",
                                dist_query_reader_batch_planned(
                                    ctx.world(),
                                    &reader,
                                    Some(&collection),
                                    q,
                                    &opts,
                                    &planned,
                                ),
                            );
                            wire += stats.wire_bytes();
                            collectives += stats.collective_calls;
                        }
                        (wire, collectives)
                    })
                    .unwrap();
                for (rank, ((wire, collectives), report)) in
                    out.results.iter().zip(&out.reports).enumerate()
                {
                    assert_eq!(
                        *wire as u64, report.bytes_received,
                        "p={p}, rank={rank}, rerank={rerank}: install+batch bytes diverge \
                         from the wire"
                    );
                    assert_eq!(
                        *collectives as u64, report.collectives,
                        "p={p}, rank={rank}, rerank={rerank}: collective count diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn reinstalling_an_overlapping_placement_ships_only_the_delta() {
        // Replicas carry over by segment id: re-planning the identical
        // placement ships zero bytes, and flipping one segment from
        // sharded to replicated pays only that segment's foreign rows —
        // while the collective count stays exactly one either way.
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(32);
        let writer = segmented_writer(&collection, &config, 4, &[]);
        let reader = writer.reader();
        let p = 4usize;
        let initial = mixed_placement(4, 0); // segments 0 and 2 replicated
        let mut widened = initial.clone();
        widened[1] = SegmentPlacement::Replicated;

        let out = Runtime::new(p)
            .run(|ctx| {
                let (planned, first) = ctx
                    .expect_ok("install", install_placement(ctx.world(), &reader, &initial, None));
                let (planned2, again) = ctx.expect_ok(
                    "reinstall",
                    install_placement(ctx.world(), &reader, &initial, Some(&planned)),
                );
                let (_, delta) = ctx.expect_ok(
                    "widen",
                    install_placement(ctx.world(), &reader, &widened, Some(&planned2)),
                );
                (first, again, delta)
            })
            .unwrap();
        let seg1_rows = reader.segments()[1].n_rows();
        for (rank, (first, again, delta)) in out.results.iter().enumerate() {
            assert_eq!(first.replicated_segments, 2);
            assert_eq!(first.reused_segments, 0);
            assert!(first.installed_rows > 0);

            assert_eq!(again.replicated_segments, 2, "rank={rank}");
            assert_eq!(again.reused_segments, 2);
            assert_eq!(again.installed_rows, 0);
            assert_eq!(again.install_bytes, 0, "identical plan must ship nothing");
            assert_eq!(again.collective_calls, 1, "the empty install still synchronizes");

            assert_eq!(delta.replicated_segments, 3);
            assert_eq!(delta.reused_segments, 2);
            assert_eq!(delta.installed_rows, seg1_rows, "only the flipped segment installs");
            assert_eq!(delta.collective_calls, 1);
        }
    }

    #[test]
    fn planned_batch_rejects_a_placement_from_another_snapshot() {
        // Install against a 2-segment snapshot, then serve a batch over
        // a grown 3-segment snapshot of the same writer: a typed error
        // on every rank, before any collective can deadlock the world.
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(16);
        let mut writer = IndexOptions::from_config(config).open_writer().unwrap();
        for i in 0..8 {
            writer.add(format!("s{i}"), collection.sample(i).to_vec()).unwrap();
        }
        writer.commit().unwrap();
        let old_reader = writer.reader();
        for i in 8..12 {
            writer.add(format!("s{i}"), collection.sample(i).to_vec()).unwrap();
        }
        writer.commit().unwrap();
        let new_reader = writer.reader();
        assert_ne!(old_reader.segments().len(), new_reader.segments().len());

        let queries: Vec<Vec<u64>> = vec![collection.sample(0).to_vec()];
        let opts = QueryOptions { top_k: 3, ..Default::default() };
        let out = Runtime::new(3)
            .run(|ctx| {
                let placements = vec![SegmentPlacement::Replicated; old_reader.segments().len()];
                let (planned, _) = ctx.expect_ok(
                    "install",
                    install_placement(ctx.world(), &old_reader, &placements, None),
                );
                let q = if ctx.rank() == 0 { Some(&queries[..]) } else { None };
                dist_query_reader_batch_planned(ctx.world(), &new_reader, None, q, &opts, &planned)
            })
            .unwrap();
        for result in out.results {
            assert!(
                matches!(result, Err(IndexError::InvalidQuery(_))),
                "stale placement must be a typed error"
            );
        }
        // A plan sized for the wrong snapshot is rejected at install.
        let bad = Runtime::new(2)
            .run(|ctx| {
                install_placement(ctx.world(), &new_reader, &[SegmentPlacement::Sharded], None)
                    .map(|_| ())
            })
            .unwrap();
        for result in bad.results {
            assert!(matches!(result, Err(IndexError::InvalidQuery(_))));
        }
    }

    #[test]
    fn failover_composes_with_mixed_placement() {
        // ROADMAP 4(d): failover and mixed placement are both just
        // layouts, so a placement installed on a 2-way replicated layout
        // over the survivor subgroup serves exact answers with a rank
        // down — and without replicas the same entry point degrades,
        // exactly as the replicated one does.
        use gas_dstsim::RankFaults;
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(64).with_threshold(0.4);
        let segments = 5usize;
        let writer = segmented_writer(&collection, &config, segments, &[1, 7, 13]);
        let reader = writer.reader();
        let queries: Vec<Vec<u64>> = (0..6).map(|i| collection.sample(i * 3).to_vec()).collect();
        // Four rows per segment: the crashed rank's slot must hold some.
        for (p, crashed) in [(4usize, 2usize), (6, 0), (8, 3)] {
            for rerank in [false, true] {
                let opts = QueryOptions { top_k: 5, rerank_exact: rerank, ..Default::default() };
                let reference = QueryEngine::snapshot_with_collection(reader.clone(), &collection)
                    .query_batch(&queries, &opts)
                    .unwrap();
                let placements = mixed_placement(segments, p);
                // One round over the survivors of a `replication`-way
                // layout: install, then a batch through the layout-taking
                // entry point.
                let round = |replication: usize, placements: &[SegmentPlacement]| {
                    Runtime::new(p)
                        .with_faults(RankFaults::none().crash(crashed))
                        .run(|ctx| {
                            let world = ctx.world();
                            if world.is_crashed() {
                                return None;
                            }
                            let base = ServingLayout::sharded(world, &reader, replication);
                            let sub = world.subgroup(&world.alive_world_ranks()).unwrap();
                            let q = if sub.rank() == 0 { Some(&queries[..]) } else { None };
                            Some(install_placement(&sub, &reader, placements, Some(&base)).map(
                                |(layout, install)| {
                                    let batch = ctx.expect_ok(
                                        "planned",
                                        dist_query_reader_batch_planned(
                                            &sub,
                                            &reader,
                                            Some(&collection),
                                            q,
                                            &opts,
                                            &layout,
                                        ),
                                    );
                                    (install, batch)
                                },
                            ))
                        })
                        .unwrap()
                };

                let out = round(2, &placements);
                for (rank, (result, report)) in out.results.iter().zip(&out.reports).enumerate() {
                    let Some(result) = result else {
                        assert_eq!(rank, crashed);
                        continue;
                    };
                    let case = format!("p={p}, crashed={crashed}, rank={rank}, rerank={rerank}");
                    let (install, batch) = result.as_ref().expect("c=2 covers one crash");
                    let (answers, degraded, stats) = batch;
                    assert_eq!(answers, &reference, "{case}: composed answers diverge");
                    assert!(!degraded.degraded, "{case}");
                    assert_eq!(degraded.failed_ranks, vec![crashed], "{case}");
                    assert!(degraded.lost_bands.is_empty() && degraded.lost_rows == 0, "{case}");
                    assert_eq!(install.collective_calls, 1, "{case}");
                    assert_eq!(stats.collective_calls, if rerank { 6 } else { 5 }, "{case}");
                    for (seg, placement) in stats.per_segment.iter().zip(&placements) {
                        assert_eq!(seg.owned_rows + seg.fetched_rows, seg.candidate_rows);
                        if *placement == SegmentPlacement::Replicated {
                            assert_eq!(seg.fetched_rows, 0, "{case}: replica fetched rows");
                        }
                    }
                    // Install plus the batch account for every wire byte.
                    assert_eq!(
                        (install.install_bytes + stats.wire_bytes()) as u64,
                        report.bytes_received,
                        "{case}: composed rounds diverge from the wire"
                    );
                    assert_eq!(
                        (install.collective_calls + stats.collective_calls) as u64,
                        report.collectives,
                        "{case}"
                    );
                }

                // Without replicas the crashed rank's slot is lost: a
                // replica that needs its rows cannot be assembled...
                for result in round(1, &placements).results.iter().flatten() {
                    assert!(
                        matches!(result, Err(IndexError::Corrupt { context })
                            if context.contains("no rank shipped row")),
                        "a lost slot must fail the install typed"
                    );
                }
                // ...while an all-sharded plan installs (nothing ships)
                // and serves degraded: the very round the replicated
                // entry point runs at c = 1 under the same crash.
                let replicated = Runtime::new(p)
                    .with_faults(RankFaults::none().crash(crashed))
                    .run(|ctx| {
                        let world = ctx.world();
                        let ingress = world.alive_world_ranks().first() == Some(&ctx.rank());
                        let q = if ingress { Some(&queries[..]) } else { None };
                        dist_query_reader_batch_replicated(
                            world,
                            &reader,
                            Some(&collection),
                            q,
                            &opts,
                            1,
                        )
                    })
                    .unwrap();
                let sharded = vec![SegmentPlacement::Sharded; segments];
                let planned = round(1, &sharded);
                for (rank, result) in planned.results.iter().enumerate() {
                    let Some(result) = result else { continue };
                    let case = format!("p={p}, crashed={crashed}, rank={rank}, rerank={rerank}");
                    let (_, (answers, degraded, stats)) =
                        result.as_ref().expect("nothing to assemble");
                    let (want, want_degraded, want_stats) =
                        replicated.results[rank].as_ref().expect("survivors answer degraded");
                    assert_eq!(answers, want, "{case}");
                    assert_eq!(degraded, want_degraded, "{case}");
                    assert!(degraded.degraded && !degraded.lost_bands.is_empty(), "{case}");
                    assert_eq!(degraded.failed_ranks, vec![crashed], "{case}");
                    assert_eq!(stats.wire_bytes(), want_stats.wire_bytes(), "{case}");
                    assert_eq!(stats.collective_calls, want_stats.collective_calls, "{case}");
                    assert_eq!(stats.collective_calls, if rerank { 7 } else { 6 }, "{case}");
                }
            }
        }
    }

    fn paper_model() -> CostModel {
        gas_dstsim::machine::Machine::stampede2_knl().cost_model().unwrap()
    }

    fn observation(
        id: u64,
        rows: usize,
        candidates_per_batch: u64,
        residency: f64,
    ) -> SegmentObservation {
        SegmentObservation {
            segment_id: id,
            rows,
            probes: if candidates_per_batch > 0 { 10 } else { 0 },
            candidate_rows: candidates_per_batch * 10,
            batches_observed: 10,
            expected_batches_resident: Some(residency),
        }
    }

    #[test]
    fn hot_settled_segments_replicate_fresh_and_cold_ones_shard() {
        let model = paper_model();
        let observations = vec![
            // Hot and long-lived: 60 candidate rows per batch, 100 stored
            // rows, resident 64 batches → install amortizes to ~1.6
            // rows/batch, far below the 60 it saves.
            observation(1, 100, 60, 64.0),
            // Fresh: same traffic but churns in 2 batches → install costs
            // 50 rows/batch against 6 saved.
            observation(2, 100, 6, 2.0),
            // Cold: never probed, stays sharded no matter the size.
            SegmentObservation { probes: 0, candidate_rows: 0, ..observation(3, 5000, 0, 64.0) },
        ];
        let placements = plan_placement(&model, 4, 65, &observations).unwrap();
        // Output preserves input order.
        assert_eq!(
            placements,
            vec![
                SegmentPlacement::Replicated,
                SegmentPlacement::Sharded,
                SegmentPlacement::Sharded
            ]
        );
        // The mixed placement is priced at most as high as either pure one.
        let costs: Vec<(f64, f64)> =
            observations.iter().map(|obs| placement_costs(&model, 4, 65, obs)).collect();
        let pure_shard: f64 = costs.iter().map(|c| c.0).sum();
        let pure_replicate: f64 = costs.iter().map(|c| c.1).sum();
        let mixed: f64 = costs
            .iter()
            .zip(&placements)
            .map(|(&(shard, replicate), pl)| match pl {
                SegmentPlacement::Replicated => replicate,
                SegmentPlacement::Sharded => shard,
            })
            .sum();
        assert!(mixed <= pure_shard + 1e-15);
        assert!(mixed <= pure_replicate + 1e-15);
    }

    #[test]
    fn single_rank_plans_everything_sharded() {
        // With p = 1 nothing crosses the wire either way; replication
        // cannot strictly win, so the cheaper no-op (sharded) stands.
        let placements = plan_placement(&paper_model(), 1, 65, &[observation(1, 100, 60, 64.0)]);
        assert_eq!(placements.unwrap(), vec![SegmentPlacement::Sharded]);
    }

    #[test]
    fn memory_budget_admits_best_benefit_first() {
        // Half of per-rank memory fits exactly one 100-row replica of
        // 65-word rows.
        let model = CostModel { mem_per_rank: 2 * 100 * 65 * 8, ..paper_model() };
        let observations = [
            observation(1, 100, 30, 64.0), // replica-worthy, smaller benefit
            observation(2, 100, 90, 64.0), // replica-worthy, larger benefit
        ];
        let placements = plan_placement(&model, 4, 65, &observations).unwrap();
        assert_eq!(placements, vec![SegmentPlacement::Sharded, SegmentPlacement::Replicated]);
    }

    #[test]
    fn observations_carry_typed_heat_and_cold_segments_shard() {
        let hot =
            SegmentStats { segment_id: 7, rows: 40, live_rows: 33, probes: 12, candidates: 340 };
        let o = SegmentObservation::from_stats(&hot, 6);
        assert_eq!((o.segment_id, o.rows), (7, 40));
        assert_eq!((o.probes, o.candidate_rows, o.batches_observed), (12, 340, 6));
        assert_eq!(o.expected_batches_resident, None);
        // A never-probed segment reads cold and is sharded, however large.
        let cold = SegmentObservation::from_stats(
            &SegmentStats { segment_id: 9, rows: 5000, live_rows: 5000, probes: 0, candidates: 0 },
            6,
        );
        assert_eq!((cold.probes, cold.candidate_rows), (0, 0));
        let cold = cold.with_residency(1e9);
        assert_eq!(cold.expected_batches_resident, Some(1e9));
        let placements = plan_placement(&paper_model(), 4, 65, &[o, cold]).unwrap();
        assert_eq!(placements, vec![SegmentPlacement::Replicated, SegmentPlacement::Sharded]);
    }

    #[test]
    fn degenerate_placement_inputs_are_rejected() {
        let obs = [observation(1, 100, 60, 64.0)];
        for (ranks, row_words) in [(0, 65), (4, 0)] {
            let result = plan_placement(&paper_model(), ranks, row_words, &obs);
            assert!(matches!(result, Err(IndexError::InvalidConfig(_))), "{ranks}, {row_words}");
        }
        let bad_machine = CostModel { beta: f64::NAN, ..paper_model() };
        let result = plan_placement(&bad_machine, 4, 65, &obs);
        assert!(matches!(result, Err(IndexError::Sim(SimError::InvalidConfig(_)))));
    }
}
