//! The batched top-k query engine.
//!
//! A query is a set of attribute values (k-mer codes). Serving it means:
//! sign the query with the index's
//! [`SignatureScheme`](gas_core::minhash::SignatureScheme), probe every LSH
//! band bucket for candidates, score the candidates by signature
//! agreement (rayon map + reduce over candidate chunks, merging
//! per-chunk top lists), and optionally re-rank the survivors with
//! *exact* Jaccard (Eq. 7 applied per candidate pair instead of as a
//! full `AᵀA`, with the query as the row universe — see
//! [`exact_scores_popcount`]). A batch is one parallel pass over its
//! queries. Everything is deterministic: candidate sets are sorted, and
//! ties break toward the smaller sample id.

use gas_core::indicator::SampleCollection;
use gas_core::minhash::MinHashSignature;
use rayon::prelude::*;

use crate::build::band_keys;
use crate::error::{IndexError, IndexResult};
use crate::lifecycle::IndexReader;
use crate::segment::Segment;

/// One answer of a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Sample id in the indexed collection.
    pub id: u32,
    /// Number of agreeing signature positions (0 for purely exact
    /// scoring, where no signatures were involved).
    pub agreement: u32,
    /// Similarity score: the MinHash estimate `agreement / len`, replaced
    /// by the exact Jaccard similarity after re-ranking.
    pub score: f64,
}

/// Options of one batched query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Number of neighbors to return per query.
    pub top_k: usize,
    /// Keep `oversample × top_k` LSH candidates through the scoring
    /// stage; re-ranking then picks the final `top_k` from that pool.
    /// Absorbs estimator noise near the cut-off.
    pub oversample: usize,
    /// Re-rank the surviving candidates with exact Jaccard via the
    /// popcount-AND path (requires the engine to hold the collection).
    pub rerank_exact: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { top_k: 10, oversample: 3, rerank_exact: false }
    }
}

impl QueryOptions {
    /// Candidates kept through the LSH scoring stage.
    pub fn keep(&self) -> usize {
        self.top_k.saturating_mul(self.oversample.max(1)).max(self.top_k)
    }
}

/// An opaque pagination cursor: the snapshot generation the scan is
/// pinned to plus the rank offset of the next hit. Clients treat the
/// [`token`](Self::token) as an opaque string; the engine validates the
/// generation on every page, so a cursor can never silently mix the
/// rankings of two different snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCursor {
    generation: u64,
    offset: u64,
}

impl PageCursor {
    pub(crate) fn new(generation: u64, offset: u64) -> Self {
        PageCursor { generation, offset }
    }

    /// The snapshot generation this cursor is pinned to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The rank offset the next page starts at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Serialize to an opaque wire token.
    pub fn token(&self) -> String {
        format!("{:x}.{:x}", self.generation, self.offset)
    }

    /// Parse a wire token produced by [`Self::token`].
    pub fn parse(token: &str) -> IndexResult<Self> {
        let bad = || IndexError::InvalidCursor(token.to_string());
        let (gen_hex, off_hex) = token.split_once('.').ok_or_else(bad)?;
        Ok(PageCursor {
            generation: u64::from_str_radix(gen_hex, 16).map_err(|_| bad())?,
            offset: u64::from_str_radix(off_hex, 16).map_err(|_| bad())?,
        })
    }
}

/// One page request of a paginated query scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRequest {
    /// Resume point (`None` starts the scan). The cursor's generation
    /// must match the snapshot being queried or the request fails with
    /// a typed [`IndexError::StaleCursor`].
    pub cursor: Option<PageCursor>,
    /// Hits per page (must be ≥ 1).
    pub page_size: usize,
    /// Drop hits scoring below this (applied to the exact score when
    /// re-ranking, the MinHash estimate otherwise).
    pub min_score: f64,
    /// Re-rank the full candidate ranking with exact Jaccard before
    /// paging (requires the engine to hold the collection). Applied to
    /// the *whole* ranking so page boundaries never change the order.
    pub rerank_exact: bool,
}

impl PageRequest {
    /// A first-page request with no score floor and no re-ranking.
    pub fn new(page_size: usize) -> Self {
        PageRequest { cursor: None, page_size, min_score: 0.0, rerank_exact: false }
    }

    /// Resume from a cursor returned in a previous [`QueryPage`].
    pub fn with_cursor(mut self, cursor: PageCursor) -> Self {
        self.cursor = Some(cursor);
        self
    }

    /// Set the score floor.
    pub fn with_min_score(mut self, min_score: f64) -> Self {
        self.min_score = min_score;
        self
    }

    /// Enable exact re-ranking of the full ranking.
    pub fn with_rerank(mut self, rerank_exact: bool) -> Self {
        self.rerank_exact = rerank_exact;
        self
    }
}

/// One page of a paginated query scan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPage {
    /// The hits of this page, in ranking order.
    pub hits: Vec<Neighbor>,
    /// Cursor of the next page (`None` when the scan is exhausted).
    pub next_cursor: Option<PageCursor>,
    /// Total LSH candidates the ranking was computed over (constant
    /// across the pages of one scan).
    pub total_candidates: usize,
}

/// Entries of the LSH scoring stage: `(agreement, id)` ordered by
/// agreement descending, then id ascending.
pub(crate) type Scored = (u32, u32);

/// The one ordering every ranking stage (local scoring, distributed
/// merge) must share for the single-rank and sharded paths to return
/// bit-identical answers.
#[inline]
pub(crate) fn scored_less(a: &Scored, b: &Scored) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Query values as the sorted, deduplicated set every scoring path
/// assumes: borrowed when already canonical, normalized otherwise.
pub(crate) fn normalized_query(values: &[u64]) -> std::borrow::Cow<'_, [u64]> {
    if values.windows(2).all(|w| w[0] < w[1]) {
        return std::borrow::Cow::Borrowed(values);
    }
    let mut owned = values.to_vec();
    owned.sort_unstable();
    owned.dedup();
    std::borrow::Cow::Owned(owned)
}

/// Merge two lists sorted by [`scored_less`], keeping the best `keep`.
fn merge_scored(a: Vec<Scored>, b: Vec<Scored>, keep: usize) -> Vec<Scored> {
    if a.is_empty() || b.is_empty() {
        let mut out = if a.is_empty() { b } else { a };
        out.truncate(keep);
        return out;
    }
    let mut out = Vec::with_capacity((a.len() + b.len()).min(keep));
    let (mut i, mut j) = (0usize, 0usize);
    while out.len() < keep && (i < a.len() || j < b.len()) {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => scored_less(x, y) != std::cmp::Ordering::Greater,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out
}

/// Score `candidates` with `score_of` and keep the best `keep`, in
/// parallel over candidate chunks (rayon map + reduce). The scoring
/// callback abstracts where signature rows live: the local engine reads
/// them from the index, the distributed engine from its signature shard
/// plus the rows fetched for this batch.
pub(crate) fn lsh_top_by<F: Fn(u32) -> u32 + Sync>(
    score_of: &F,
    candidates: &[u32],
    keep: usize,
) -> Vec<Scored> {
    if candidates.is_empty() || keep == 0 {
        return Vec::new();
    }
    let chunk = 1024usize;
    candidates
        .par_chunks(chunk)
        .map(|ids| {
            let mut local: Vec<Scored> = ids.iter().map(|&id| (score_of(id), id)).collect();
            local.sort_unstable_by(scored_less);
            local.truncate(keep);
            local
        })
        .reduce(Vec::new, |a, b| merge_scored(a, b, keep))
}

/// Deterministic merge of scored candidates drawn from several sources
/// — the segments of a reader snapshot, or the per-rank partial lists
/// of a distributed round. A sample surfacing from more than one probed
/// bucket across sources is kept exactly once (duplicates are keyed by
/// sample id; should sources ever disagree on a sample's agreement,
/// which only a corrupt source can produce, the highest agreement
/// wins), and the final ordering is the engine-wide ranking order:
/// agreement descending, then sample id ascending — **score ties keep
/// the lowest sample id first**, so merged top-k output is stable no
/// matter how rows are spread over segments or ranks.
pub(crate) fn merge_scored_sources(mut entries: Vec<Scored>, keep: usize) -> Vec<Scored> {
    // Group duplicates by id (best agreement first within a group), then
    // restore the ranking order. Two passes keep the dedup correct even
    // for non-adjacent duplicates, which a single ranking sort followed
    // by `dedup_by_key` would miss if agreements disagreed.
    entries.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
    entries.dedup_by_key(|e| e.1);
    entries.sort_unstable_by(scored_less);
    entries.truncate(keep);
    entries
}

/// The probe heat of one pass over a reader's segments: `(probes,
/// candidates)` by segment position, accumulated locally and
/// [flushed](Self::flush) into the segments once per pass. This is the
/// observed signal [`crate::dist::plan_placement`] ranks segments "hot"
/// by (read back through [`IndexReader::segment_stats`]), recorded on
/// every probe of both the local engine and the distributed prober so
/// serving and planning see the same heat.
#[derive(Debug)]
pub(crate) struct ProbeHeat(Vec<(u64, u64)>);

impl ProbeHeat {
    /// No probes yet of any segment of `reader`.
    pub(crate) fn new(reader: &IndexReader) -> Self {
        ProbeHeat(vec![(0, 0); reader.segments().len()])
    }

    /// Count `probes` probes of the segment at `position` that surfaced
    /// `candidates` candidates between them.
    pub(crate) fn record(&mut self, position: usize, probes: u64, candidates: u64) {
        self.0[position].0 += probes;
        self.0[position].1 += candidates;
    }

    fn absorb(&mut self, other: ProbeHeat) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }

    /// Add the pass to the heat of every probed segment of `reader`, then
    /// to the bounded aggregate `gas_plan_segment_{probes,candidates}_total`
    /// pair of the metrics registry — one registry visit per (pass,
    /// counter).
    pub(crate) fn flush(self, reader: &IndexReader) {
        let (mut all_probes, mut all_candidates) = (0u64, 0u64);
        for (seg, (probes, candidates)) in reader.segments().iter().zip(self.0) {
            if probes == 0 {
                continue;
            }
            all_probes += probes;
            all_candidates += candidates;
            seg.record_heat(probes, candidates);
        }
        if all_probes > 0 {
            gas_obs::counter("gas_plan_segment_probes_total").add(all_probes);
            gas_obs::counter("gas_plan_segment_candidates_total").add(all_candidates);
        }
    }
}

/// The candidate *local rows* of `seg` for a query with band keys
/// `keys`, restricted to bands `band_filter` admits and to rows whose
/// global id is live under `reader`'s tombstones; `words` is the probe's
/// bitmap scratch (see [`Segment::candidates_where`]). Shared by the
/// local engine and the distributed prober so both surface exactly the
/// same candidates.
pub(crate) fn live_segment_candidates<F: Fn(usize) -> bool>(
    reader: &IndexReader,
    seg: &Segment,
    keys: &[u64],
    band_filter: F,
    words: &mut Vec<u64>,
) -> Vec<u32> {
    let live = |local: u32| !reader.is_deleted(seg.global_id(local as usize));
    seg.probe(keys, band_filter, live, words)
}

/// The live candidate local rows of **every** segment for **every**
/// query signature, indexed `[segment][query]` in the reader's segment
/// order: the all-segments-first probe of the keyed cross-segment
/// exchange, so the distributed path can batch every segment's row
/// requests into one collective round. Each query's band keys are hashed
/// once for all segments. Built from [`live_segment_candidates`], so the
/// candidate sets (and their order) are exactly the single-rank engine's.
pub(crate) fn live_candidates_by_segment<F: Fn(usize) -> bool>(
    reader: &IndexReader,
    signatures: &[MinHashSignature],
    band_filter: F,
) -> Vec<Vec<Vec<u32>>> {
    let mut heat = ProbeHeat::new(reader);
    let keys: Vec<Vec<u64>> =
        signatures.iter().map(|sig| band_keys(reader.params(), sig)).collect();
    let mut words = Vec::new();
    let by_segment = reader
        .segments()
        .iter()
        .enumerate()
        .map(|(position, seg)| {
            let per_query: Vec<Vec<u32>> = keys
                .iter()
                .map(|keys| live_segment_candidates(reader, seg, keys, &band_filter, &mut words))
                .collect();
            let candidates: usize = per_query.iter().map(Vec::len).sum();
            heat.record(position, signatures.len() as u64, candidates as u64);
            per_query
        })
        .collect();
    heat.flush(reader);
    by_segment
}

/// Score a query signature over every live segment of a reader snapshot
/// and keep the global best `keep`, as `(agreement, global id)` entries:
/// the band keys are hashed once, then per segment candidates are probed
/// and scored over local rows (a parallel map + reduce), then the
/// per-segment top lists are merged deterministically. The per-segment
/// truncation is lossless: an entry of the global top-`keep` necessarily
/// survives the top-`keep` of whichever segment holds it. Each probe is
/// recorded in `heat`; the caller flushes it.
fn scored_over_reader(
    reader: &IndexReader,
    sig: &MinHashSignature,
    keep: usize,
    heat: &mut ProbeHeat,
) -> Vec<Scored> {
    let keys = band_keys(reader.params(), sig);
    let mut words = Vec::new();
    let mut entries: Vec<Scored> = Vec::new();
    for (position, seg) in reader.segments().iter().enumerate() {
        let candidates = {
            let mut probe_span = gas_obs::span("serve", "probe");
            let candidates = live_segment_candidates(reader, seg, &keys, |_| true, &mut words);
            probe_span.annotate("candidates", candidates.len() as f64);
            heat.record(position, 1, candidates.len() as u64);
            candidates
        };
        let top = {
            let _score_span = gas_obs::span("serve", "score");
            lsh_top_by(
                &|local| seg.signature(local as usize).agreement(sig) as u32,
                &candidates,
                keep,
            )
        };
        entries.extend(top.into_iter().map(|(a, local)| (a, seg.global_id(local as usize))));
    }
    let _merge_span = gas_obs::span("serve", "merge");
    merge_scored_sources(entries, keep)
}

/// Exact Jaccard similarities between `query` and each of `ids`, with
/// the query as the row universe: a value outside the query is a zero
/// row of the query column and cannot contribute to any intersection —
/// the paper's zero-row filter applied to the pair product — so only
/// the query's own rows are ever matched. Over that universe the
/// popcount of query AND candidate *is* the number of candidate values
/// found in the query, which one linear merge-join per candidate counts
/// ([`sorted_intersection_size`]): O(|query| + |candidate|), nothing
/// sorted, nothing packed.
pub fn exact_scores_popcount(
    collection: &SampleCollection,
    query: &[u64],
    ids: &[u32],
) -> IndexResult<Vec<f64>> {
    let query = &*normalized_query(query);
    for &id in ids {
        if id as usize >= collection.n() {
            return Err(IndexError::InvalidQuery(format!(
                "candidate id {id} out of range for {} samples",
                collection.n()
            )));
        }
    }
    Ok(ids.iter().map(|&id| sorted_jaccard(query, collection.sample(id as usize))).collect())
}

/// Turn scored LSH entries into final neighbors: optionally re-rank with
/// exact Jaccard, then truncate to `top_k`. Shared by the local and the
/// distributed query paths so both return bit-identical answers.
pub(crate) fn finalize(
    scored: Vec<Scored>,
    signature_len: usize,
    query: &[u64],
    collection: Option<&SampleCollection>,
    opts: &QueryOptions,
) -> IndexResult<Vec<Neighbor>> {
    let mut neighbors: Vec<Neighbor> = scored
        .into_iter()
        .map(|(agreement, id)| Neighbor {
            id,
            agreement,
            score: agreement as f64 / signature_len as f64,
        })
        .collect();
    if opts.rerank_exact {
        let _rerank_span = gas_obs::span("serve", "rerank");
        let collection = collection.ok_or_else(|| {
            IndexError::InvalidQuery(
                "exact re-ranking requires the engine to hold the sample collection".into(),
            )
        })?;
        let ids: Vec<u32> = neighbors.iter().map(|n| n.id).collect();
        let exact = exact_scores_popcount(collection, query, &ids)?;
        for (n, score) in neighbors.iter_mut().zip(exact) {
            n.score = score;
        }
        neighbors.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    }
    neighbors.truncate(opts.top_k);
    Ok(neighbors)
}

/// The one page cut of the paginated scan, shared by the single-rank
/// engine and the distributed path so their cursors are interchangeable
/// by construction. Validates `req` against the snapshot `generation`
/// (zero page size and stale cursors are typed errors, raised before any
/// ranking work) and returns the options to rank a query *in full* with
/// — unbounded, so no pool truncates the scan and a ranking's length is
/// its candidate count — plus the cut to apply to each full ranking:
/// `min_score` filter, cursor offset, next cursor.
pub(crate) fn page_cut(
    req: &PageRequest,
    generation: u64,
) -> IndexResult<(QueryOptions, impl Fn(Vec<Neighbor>) -> QueryPage)> {
    if req.page_size == 0 {
        return Err(IndexError::InvalidQuery("page_size must be ≥ 1".into()));
    }
    let offset = match req.cursor {
        Some(cursor) if cursor.generation() != generation => {
            return Err(IndexError::StaleCursor {
                cursor_generation: cursor.generation(),
                snapshot_generation: generation,
            });
        }
        Some(cursor) => cursor.offset() as usize,
        None => 0,
    };
    let (page_size, min_score) = (req.page_size, req.min_score);
    let cut = move |ranked: Vec<Neighbor>| {
        let total_candidates = ranked.len();
        let ranked: Vec<Neighbor> = ranked.into_iter().filter(|n| n.score >= min_score).collect();
        let start = offset.min(ranked.len());
        let end = offset.saturating_add(page_size).min(ranked.len());
        let next_cursor = (end < ranked.len()).then(|| PageCursor::new(generation, end as u64));
        QueryPage { hits: ranked[start..end].to_vec(), next_cursor, total_candidates }
    };
    let full = QueryOptions { top_k: usize::MAX, oversample: 1, rerank_exact: req.rerank_exact };
    Ok((full, cut))
}

/// The batched top-k query engine over an [`IndexReader`] snapshot.
///
/// The engine serves whatever snapshot it was built from — the one
/// segment of a one-shot build or a whole lifecycle snapshot with
/// tombstones. Every query probes *all* live segments, skips tombstoned
/// rows, and merges the per-segment top lists deterministically (see
/// `merge_scored_sources`): answers are bit-identical to a fresh
/// one-commit build over the snapshot's live corpus, modulo the global
/// ids the snapshot preserves.
#[derive(Debug, Clone)]
pub struct QueryEngine<'a> {
    reader: IndexReader,
    collection: Option<&'a SampleCollection>,
}

impl<'a> QueryEngine<'a> {
    /// An engine over a snapshot that scores with signatures only (no
    /// exact re-ranking) — the shape the serving frontend hands out: the
    /// snapshot stays pinned to its generation for the engine's lifetime.
    pub fn snapshot(reader: IndexReader) -> QueryEngine<'static> {
        QueryEngine { reader, collection: None }
    }

    /// An engine over a snapshot that can re-rank exactly against the
    /// original sets. `collection` must be indexed by *global* sample id (the corpus
    /// the writer assigned ids over; tombstoned entries are never
    /// touched).
    pub fn snapshot_with_collection(reader: IndexReader, collection: &'a SampleCollection) -> Self {
        QueryEngine { reader, collection: Some(collection) }
    }

    /// The snapshot this engine serves.
    pub fn reader(&self) -> &IndexReader {
        &self.reader
    }

    /// The one ranking path every public query shape goes through: keep
    /// the best `pool` LSH candidates, finalize under `opts` (optional
    /// exact re-rank, truncate to `opts.top_k`).
    fn ranked_pool(
        &self,
        values: &[u64],
        pool: usize,
        opts: &QueryOptions,
        heat: &mut ProbeHeat,
    ) -> IndexResult<Vec<Neighbor>> {
        let values = &*normalized_query(values);
        let sig = self.reader.scheme().sign(values);
        let scored = scored_over_reader(&self.reader, &sig, pool, heat);
        finalize(scored, self.reader.scheme().len(), values, self.collection, opts)
    }

    /// Run a single query with a fresh [`ProbeHeat`] and flush it.
    fn single<T>(&self, one: impl FnOnce(&mut ProbeHeat) -> T) -> T {
        let mut heat = ProbeHeat::new(&self.reader);
        let answer = one(&mut heat);
        heat.flush(&self.reader);
        answer
    }

    /// Run `one` for each of `n` queries as one parallel pass: answers in
    /// input order, the error of the lowest-indexed failing query, and
    /// the probe heat of the queries up to and including that one added
    /// to the registry once — exactly what a serial loop of single
    /// queries returns and records. The scoring reduce nested inside a
    /// worker runs inline, so a batch forks once; a batch of one forks
    /// nothing.
    fn batch<T: Send>(
        &self,
        n: usize,
        one: impl Fn(usize, &mut ProbeHeat) -> IndexResult<T> + Sync,
    ) -> IndexResult<Vec<T>> {
        let answers: Vec<(IndexResult<T>, ProbeHeat)> = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut heat = ProbeHeat::new(&self.reader);
                (one(i, &mut heat), heat)
            })
            .collect();
        let mut heat = ProbeHeat::new(&self.reader);
        let mut out = Vec::with_capacity(n);
        let mut failure = None;
        for (answer, probed) in answers {
            heat.absorb(probed);
            match answer {
                Ok(answer) => out.push(answer),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        heat.flush(&self.reader);
        failure.map_or(Ok(out), Err)
    }

    /// Answer one query. `values` is treated as a set: it need not be
    /// sorted or deduplicated (signing is order-insensitive, and the
    /// exact re-rank canonicalizes before intersecting). This is the
    /// single-page case of the paginated scan: the first `top_k` hits of
    /// the ranking over the oversampled candidate pool.
    pub fn query(&self, values: &[u64], opts: &QueryOptions) -> IndexResult<Vec<Neighbor>> {
        self.single(|heat| self.query_one(values, opts, heat))
    }

    fn query_one(
        &self,
        values: &[u64],
        opts: &QueryOptions,
        heat: &mut ProbeHeat,
    ) -> IndexResult<Vec<Neighbor>> {
        let _query_span = gas_obs::span("serve", "query");
        self.ranked_pool(values, opts.keep(), opts, heat)
    }

    /// Answer one page of a paginated scan over the **full** candidate
    /// ranking. Unlike [`Self::query`], no oversampling pool truncates
    /// the ranking: every LSH candidate is ranked (and optionally exact
    /// re-ranked) before the page is cut, so for any `page_size` the
    /// concatenated pages of one scan are exactly the one-shot ranking —
    /// pages tile, never overlap, never skip. The returned cursor pins
    /// the snapshot generation; resuming it against a different
    /// generation fails with a typed [`IndexError::StaleCursor`] rather
    /// than silently mixing two rankings.
    pub fn query_page(&self, values: &[u64], req: &PageRequest) -> IndexResult<QueryPage> {
        self.single(|heat| self.query_page_one(values, req, heat))
    }

    fn query_page_one(
        &self,
        values: &[u64],
        req: &PageRequest,
        heat: &mut ProbeHeat,
    ) -> IndexResult<QueryPage> {
        let _page_span = gas_obs::span("serve", "query_page");
        let (full, cut) = page_cut(req, self.reader.generation())?;
        Ok(cut(self.ranked_pool(values, usize::MAX, &full, heat)?))
    }

    /// [`Self::query_page`] over a batch of queries, in parallel over
    /// the queries: one page per query in input order, all at the same
    /// `req` offset (the scan cursor advances in lock step across the
    /// batch); on failure, the error of the first failing query.
    pub fn query_page_batch(
        &self,
        queries: &[Vec<u64>],
        req: &PageRequest,
    ) -> IndexResult<Vec<QueryPage>> {
        self.batch(queries.len(), |i, heat| self.query_page_one(&queries[i], req, heat))
    }

    /// Answer one query from a signature signed elsewhere (an ingress
    /// tier, a peer shard, a client library). `scheme` is the scheme the
    /// caller signed with; it must match the index's scheme exactly —
    /// signer kind, length and seed — or the call fails with a typed
    /// [`IndexError::SignerMismatch`] instead of silently scoring
    /// incomparable signatures. Exact re-ranking needs the raw query
    /// values, which a pre-signed call does not carry, so
    /// `opts.rerank_exact` is rejected here.
    pub fn query_presigned(
        &self,
        scheme: &gas_core::minhash::SignatureScheme,
        sig: &MinHashSignature,
        opts: &QueryOptions,
    ) -> IndexResult<Vec<Neighbor>> {
        self.reader.check_query_scheme(scheme)?;
        if opts.rerank_exact {
            return Err(IndexError::InvalidQuery(
                "exact re-ranking needs the raw query values; use `query` instead".into(),
            ));
        }
        if sig.len() != self.reader.scheme().len() {
            return Err(IndexError::InvalidQuery(format!(
                "pre-signed signature has {} positions, the index expects {}",
                sig.len(),
                self.reader.scheme().len()
            )));
        }
        let scored = self.single(|heat| scored_over_reader(&self.reader, sig, opts.keep(), heat));
        finalize(scored, self.reader.scheme().len(), &[], None, opts)
    }

    /// Answer a batch of queries in parallel over the queries: answers
    /// line up with the input slice and equal a serial loop of
    /// [`Self::query`] bit for bit; on failure, the error of the first
    /// failing query. This is the single-page case of
    /// [`Self::query_page_batch`]: the first `top_k` hits per query,
    /// ranked over the oversampled candidate pool.
    pub fn query_batch(
        &self,
        queries: &[Vec<u64>],
        opts: &QueryOptions,
    ) -> IndexResult<Vec<Vec<Neighbor>>> {
        self.batch(queries.len(), |i, heat| self.query_one(&queries[i], opts, heat))
    }
}

/// Exact top-k by brute force over every sample (merge-join on the sorted
/// sets) — the ground truth the engine's recall is measured against, and
/// the "linear scan" baseline an index has to beat.
pub fn exact_top_k(collection: &SampleCollection, query: &[u64], top_k: usize) -> Vec<Neighbor> {
    let query = &*normalized_query(query);
    let mut scored: Vec<Neighbor> = (0..collection.n())
        .map(|id| {
            let score = sorted_jaccard(query, collection.sample(id));
            Neighbor { id: id as u32, agreement: 0, score }
        })
        .collect();
    scored.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    scored.truncate(top_k);
    scored
}

/// Jaccard similarity of two sorted, deduplicated slices.
fn sorted_jaccard(a: &[u64], b: &[u64]) -> f64 {
    let inter = sorted_intersection_size(a, b);
    let union = a.len() as u64 + b.len() as u64 - inter;
    if union == 0 {
        1.0 // Both empty: J = 1 by the pipeline's convention.
    } else {
        inter as f64 / union as f64
    }
}

/// Intersection cardinality of two sorted, deduplicated slices.
pub fn sorted_intersection_size(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexConfig;
    use crate::service::IndexOptions;

    fn workload() -> SampleCollection {
        // Three families of four samples; family cores overlap heavily.
        let mut samples = Vec::new();
        for f in 0..3u64 {
            let core: Vec<u64> = (f * 100_000..f * 100_000 + 600).collect();
            for m in 0..4u64 {
                let mut s = core.clone();
                s.extend(f * 100_000 + 50_000 + m * 40..f * 100_000 + 50_000 + m * 40 + 40);
                samples.push(s);
            }
        }
        SampleCollection::from_sets(samples).unwrap()
    }

    fn engine_fixture() -> (SampleCollection, IndexReader) {
        let collection = workload();
        let config = IndexConfig::default().with_signature_len(192).with_threshold(0.4);
        let index = IndexOptions::from_config(config).build_index(&collection).unwrap();
        (collection, index)
    }

    #[test]
    fn self_query_returns_itself_first() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot_with_collection(index, &collection);
        for id in 0..collection.n() {
            let opts = QueryOptions { top_k: 4, ..QueryOptions::default() };
            let got = engine.query(collection.sample(id), &opts).unwrap();
            assert_eq!(got[0].id, id as u32, "sample {id} not its own best match");
            assert!(got[0].score > 0.99);
            // The rest of the top-4 is the rest of the family.
            let family = (id / 4) * 4;
            for n in &got {
                assert!(
                    (family..family + 4).contains(&(n.id as usize)),
                    "sample {id} matched outside its family: {got:?}"
                );
            }
        }
    }

    #[test]
    fn estimates_and_exact_rerank_agree_on_ranking_quality() {
        let (collection, index) = engine_fixture();
        let query: Vec<u64> = collection.sample(5).iter().copied().step_by(2).collect();
        let exact = exact_top_k(&collection, &query, 4);

        let estimate_engine = QueryEngine::snapshot(index.clone());
        let est = estimate_engine
            .query(&query, &QueryOptions { top_k: 4, ..Default::default() })
            .unwrap();
        assert_eq!(est[0].id, exact[0].id, "estimate misses the top-1");

        let rerank_engine = QueryEngine::snapshot_with_collection(index, &collection);
        let opts = QueryOptions { top_k: 4, rerank_exact: true, ..Default::default() };
        let rr = rerank_engine.query(&query, &opts).unwrap();
        for (got, want) in rr.iter().zip(&exact) {
            assert_eq!(got.id, want.id);
            assert!((got.score - want.score).abs() < 1e-12, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn presigned_queries_match_inline_signing_and_reject_mismatches() {
        use gas_core::minhash::SignerKind;
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot(index.clone());
        let opts = QueryOptions { top_k: 4, ..Default::default() };
        let values = collection.sample(5);
        let sig = index.scheme().sign(values);
        let presigned = engine.query_presigned(index.scheme(), &sig, &opts).unwrap();
        assert_eq!(presigned, engine.query(values, &opts).unwrap());

        // A signature from a different signer kind is rejected, typed.
        let other_scheme = index.scheme().with_kind(SignerKind::Oph);
        let other_sig = other_scheme.sign(values);
        assert!(matches!(
            engine.query_presigned(&other_scheme, &other_sig, &opts),
            Err(IndexError::SignerMismatch { .. })
        ));
        // Rerank needs raw values — rejected on the presigned path.
        let rr = QueryOptions { rerank_exact: true, ..opts };
        assert!(matches!(
            engine.query_presigned(index.scheme(), &sig, &rr),
            Err(IndexError::InvalidQuery(_))
        ));
        // A signature whose length disagrees with the scheme is rejected.
        let short = gas_core::minhash::MinHashSignature::from_values(vec![1, 2, 3]);
        assert!(matches!(
            engine.query_presigned(index.scheme(), &short, &opts),
            Err(IndexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn rerank_without_collection_is_an_error() {
        let (_, index) = engine_fixture();
        let engine = QueryEngine::snapshot(index);
        let opts = QueryOptions { rerank_exact: true, ..Default::default() };
        assert!(matches!(engine.query(&[1, 2, 3], &opts), Err(IndexError::InvalidQuery(_))));
    }

    #[test]
    fn exact_scores_popcount_matches_a_set_oracle_bit_for_bit() {
        use gas_core::minhash::splitmix64;
        use std::collections::BTreeSet;
        // Seeded random sets over a small universe (so they overlap),
        // one of them empty.
        let random_set = |seed: u64, len: u64| -> Vec<u64> {
            let set: BTreeSet<u64> = (0..len).map(|i| splitmix64(seed << 32 | i) % 500).collect();
            set.into_iter().collect()
        };
        let mut samples: Vec<Vec<u64>> = (0..24u64).map(|s| random_set(s, 20 + s * 9)).collect();
        samples[5].clear();
        let collection = SampleCollection::from_sorted_sets(samples.clone()).unwrap();
        let ids: Vec<u32> = (0..collection.n() as u32).collect();

        let mut unsorted_duplicated: Vec<u64> = samples[7].iter().rev().copied().collect();
        unsorted_duplicated.extend_from_slice(&samples[7][..10]);
        let queries: Vec<Vec<u64>> = vec![
            random_set(99, 150),
            samples[3].clone(),
            Vec::new(),               // J = 1 against the empty sample, else 0
            (1_000..1_100).collect(), // disjoint from every candidate
            unsorted_duplicated,
        ];
        for query in &queries {
            let as_set: BTreeSet<u64> = query.iter().copied().collect();
            let got = exact_scores_popcount(&collection, query, &ids).unwrap();
            let brute_force = exact_top_k(&collection, query, collection.n());
            for (&id, &score) in ids.iter().zip(&got) {
                let sample: BTreeSet<u64> = samples[id as usize].iter().copied().collect();
                let inter = as_set.intersection(&sample).count();
                let union = as_set.union(&sample).count();
                let want = if union == 0 { 1.0 } else { inter as f64 / union as f64 };
                assert_eq!(score.to_bits(), want.to_bits(), "id {id}: {score} vs {want}");
                let scan = brute_force.iter().find(|n| n.id == id).unwrap();
                assert_eq!(score.to_bits(), scan.score.to_bits(), "id {id} vs exact_top_k");
            }
        }
        // A subset of ids, in the caller's order, scores the same.
        let picked = [9u32, 2, 9];
        let got = exact_scores_popcount(&collection, &queries[0], &picked).unwrap();
        let all = exact_scores_popcount(&collection, &queries[0], &ids).unwrap();
        assert_eq!(got, picked.map(|id| all[id as usize]));
        // Out-of-range candidate ids are rejected.
        assert!(exact_scores_popcount(&collection, &queries[0], &[999]).is_err());
    }

    #[test]
    fn batch_queries_line_up_with_inputs() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot_with_collection(index, &collection);
        let queries: Vec<Vec<u64>> = (0..6).map(|i| collection.sample(i * 2).to_vec()).collect();
        let opts = QueryOptions { top_k: 3, rerank_exact: true, ..Default::default() };
        let batch = engine.query_batch(&queries, &opts).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (i, answers) in batch.iter().enumerate() {
            assert_eq!(answers[0].id, (i * 2) as u32);
            assert_eq!(answers, &engine.query(&queries[i], &opts).unwrap());
        }
    }

    #[test]
    fn pages_tile_the_full_ranking_for_any_page_size() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot_with_collection(index, &collection);
        let query = collection.sample(5);
        for rerank in [false, true] {
            // One-shot reference: a single page larger than the corpus.
            let oneshot = engine
                .query_page(query, &PageRequest::new(collection.n() + 1).with_rerank(rerank))
                .unwrap();
            assert!(oneshot.next_cursor.is_none());
            for page_size in [1usize, 2, 3, 5, 7] {
                let mut walked = Vec::new();
                let mut req = PageRequest::new(page_size).with_rerank(rerank);
                loop {
                    let page = engine.query_page(query, &req).unwrap();
                    assert!(page.hits.len() <= page_size);
                    assert_eq!(page.total_candidates, oneshot.total_candidates);
                    walked.extend(page.hits);
                    match page.next_cursor {
                        Some(cursor) => {
                            // Cursor round-trips through its wire token.
                            let token = cursor.token();
                            req = req.with_cursor(PageCursor::parse(&token).unwrap());
                        }
                        None => break,
                    }
                }
                assert_eq!(walked, oneshot.hits, "page_size={page_size} rerank={rerank}");
            }
        }
    }

    #[test]
    fn page_min_score_filters_before_paging() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot(index);
        let query = collection.sample(0);
        let all = engine.query_page(query, &PageRequest::new(64)).unwrap();
        let floor = all.hits[all.hits.len() / 2].score;
        let filtered =
            engine.query_page(query, &PageRequest::new(64).with_min_score(floor)).unwrap();
        let want: Vec<Neighbor> = all.hits.iter().copied().filter(|n| n.score >= floor).collect();
        assert_eq!(filtered.hits, want);
        assert!(filtered.hits.len() < all.hits.len());
    }

    #[test]
    fn stale_and_malformed_cursors_are_typed_errors() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot(index);
        let query = collection.sample(0);
        // A one-commit snapshot is generation 1; a cursor minted at any
        // other generation must be refused.
        let stale = PageRequest::new(4).with_cursor(PageCursor::new(7, 0));
        assert!(matches!(
            engine.query_page(query, &stale),
            Err(IndexError::StaleCursor { cursor_generation: 7, snapshot_generation: 1 })
        ));
        assert!(matches!(PageCursor::parse("gibberish"), Err(IndexError::InvalidCursor(_))));
        assert!(matches!(PageCursor::parse("12"), Err(IndexError::InvalidCursor(_))));
        // A zero-size page can never make progress: rejected.
        assert!(matches!(
            engine.query_page(query, &PageRequest::new(0)),
            Err(IndexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn empty_queries_and_empty_results_behave() {
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot_with_collection(index, &collection);
        // An empty query collides with no indexed sample (none is empty).
        let got = engine.query(&[], &QueryOptions::default()).unwrap();
        assert!(got.is_empty());
        // top_k = 0 returns nothing.
        let got = engine
            .query(collection.sample(0), &QueryOptions { top_k: 0, ..Default::default() })
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn unsorted_and_duplicated_queries_are_canonicalized() {
        // Public entry points treat the query as a set: shuffled or
        // duplicated values must produce exactly the answers of the
        // sorted, deduplicated query — including through the exact
        // popcount re-rank, which would otherwise reject non-increasing
        // columns or inflate the union term.
        let (collection, index) = engine_fixture();
        let engine = QueryEngine::snapshot_with_collection(index, &collection);
        let clean: Vec<u64> = collection.sample(7).to_vec();
        let mut messy: Vec<u64> = clean.iter().rev().copied().collect();
        messy.extend_from_slice(&clean[..clean.len() / 3]); // duplicates
        for rerank in [false, true] {
            let opts = QueryOptions { top_k: 4, rerank_exact: rerank, ..Default::default() };
            assert_eq!(
                engine.query(&messy, &opts).unwrap(),
                engine.query(&clean, &opts).unwrap(),
                "rerank={rerank}"
            );
        }
        assert_eq!(exact_top_k(&collection, &messy, 3), exact_top_k(&collection, &clean, 3));
        let ids = [0u32, 7];
        assert_eq!(
            exact_scores_popcount(&collection, &messy, &ids).unwrap(),
            exact_scores_popcount(&collection, &clean, &ids).unwrap()
        );
    }

    #[test]
    fn merge_scored_sources_dedups_and_breaks_ties_by_lowest_id() {
        // Duplicates across sources (segments, ranks) collapse to one
        // entry per id even when non-adjacent; on agreement ties the
        // lower sample id ranks first; a duplicated id whose sources
        // disagree keeps the highest agreement.
        let entries = vec![(5, 9), (7, 3), (5, 2), (7, 3), (6, 9), (5, 4)];
        let merged = merge_scored_sources(entries, 10);
        assert_eq!(merged, vec![(7, 3), (6, 9), (5, 2), (5, 4)]);
        let truncated = merge_scored_sources(vec![(1, 1), (1, 0), (2, 5)], 2);
        assert_eq!(truncated, vec![(2, 5), (1, 0)]);
        assert!(merge_scored_sources(Vec::new(), 4).is_empty());
    }

    #[test]
    fn merge_scored_keeps_order_and_cap() {
        let a = vec![(9, 1), (5, 0), (5, 2)];
        let b = vec![(9, 0), (7, 5), (5, 1)];
        let m = merge_scored(a.clone(), b.clone(), 4);
        assert_eq!(m, vec![(9, 0), (9, 1), (7, 5), (5, 0)]);
        assert_eq!(merge_scored(a.clone(), Vec::new(), 2), a[..2].to_vec());
        assert_eq!(merge_scored(Vec::new(), b.clone(), 2), b[..2].to_vec());
    }

    #[test]
    fn sorted_intersection_size_basics() {
        assert_eq!(sorted_intersection_size(&[1, 2, 3], &[2, 3, 4]), 2);
        assert_eq!(sorted_intersection_size(&[], &[1]), 0);
        assert_eq!(sorted_intersection_size(&[5], &[5]), 1);
    }
}
