//! The paper path's schedule, restated: every counter of every rank's
//! `CostReport` but the wall clock, for a run of
//! `similarity_at_scale_distributed` on an `r × q × c` grid, built phase
//! by phase from the collection's sorted values, the batch plan and the
//! filter flag (Section III-C's per-batch schedule, counted exactly).
//!
//! - Set-up: four splits of the world (the grid communicator, then its
//!   row, column and fiber splits), each a ring allgather of one 16-byte
//!   `(color, rank)` pair per rank.
//! - Per batch, with the filter on: every rank streams its column block's
//!   entries (8 bytes each) and then, where a bitmap of `⌈batch_rows/64⌉`
//!   words is at most 64 words per entry of the batch, OR-allreduces it
//!   over the world and charges one flop per word; else it allgathers its
//!   column block's distinct rows (8 bytes each) and charges one flop per
//!   survivor.
//! - Per batch, the SUMMA sweep of each layer `k`: the packed batch's
//!   word rows are cut into `T·c` chunks (`T = lcm(r, q)`), and step `t`
//!   contracts chunk `k·T + t`. Grid row `t mod r` of each column
//!   communicator broadcasts the CSR block `A[chunk, C_j]`, grid column
//!   `t mod q` of each row communicator the CSC block `A[chunk, R_i]`:
//!   `16 + 4·(major + 1 + words) + 8·words` bytes each. Every rank
//!   charges the block's Gustavson count `Σ_w nnz_A(w)·nnz_B(w)`. A
//!   `1 × 1` layer grid broadcasts nothing and charges its chunk's count
//!   over all samples. The batch ends in one superstep.
//! - After the last batch: with `c > 1` each fiber reduces its `u64`
//!   output block onto layer 0, then the world allreduces the `n`
//!   cardinalities, and rank 0 gathers every layer-0 block but its own.
//!
//! The words come from the sorted values alone: the survivors are the
//! batch's distinct values, a value's row is its rank among them (or its
//! offset in the batch, unfiltered), and a sample stores one word per
//! distinct `row / 64`. Nothing here packs a batch. The collectives are
//! those of `gas_dstsim::collectives`, restated: binomial trees rooted at
//! local rank 0 (reduce) or at the owner (broadcast), a ring allgather,
//! and a gather by direct sends.

use std::ops::Range;

use gas_core::batch::BatchPlan;
use gas_core::indicator::SampleCollection;
use gas_dstsim::cost::CostReport;

/// One rank's counters: a `CostReport` without its rank and wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub msgs_sent: u64,
    pub msgs_received: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    pub flops: u64,
    pub mem_traffic: u64,
    pub supersteps: u64,
    pub collectives: u64,
}

impl Counters {
    fn of(report: &CostReport) -> Counters {
        Counters {
            msgs_sent: report.msgs_sent,
            msgs_received: report.msgs_received,
            bytes_sent: report.bytes_sent,
            bytes_received: report.bytes_received,
            flops: report.flops,
            mem_traffic: report.mem_traffic,
            supersteps: report.supersteps,
            collectives: report.collectives,
        }
    }

    fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("msgs_sent", self.msgs_sent),
            ("msgs_received", self.msgs_received),
            ("bytes_sent", self.bytes_sent),
            ("bytes_received", self.bytes_received),
            ("flops", self.flops),
            ("mem_traffic", self.mem_traffic),
            ("supersteps", self.supersteps),
            ("collectives", self.collectives),
        ]
    }
}

/// Assert that every rank's report equals the schedule's counters, naming
/// the configuration `ctx`, the rank and the counter at the first mismatch.
pub fn assert_schedule(reports: &[CostReport], schedule: &[Counters], ctx: &str) {
    assert_eq!(reports.len(), schedule.len(), "{ctx}: ranks");
    for (rank, (report, want)) in reports.iter().zip(schedule).enumerate() {
        for ((name, got), (_, want)) in Counters::of(report).named().into_iter().zip(want.named()) {
            assert_eq!(got, want, "{ctx}: rank {rank} {name}: measured {got}, scheduled {want}");
        }
    }
}

/// The per-rank counters while collectives run over groups of world ranks
/// (each group listed in local-rank order).
struct Ledger(Vec<Counters>);

impl Ledger {
    fn enter(&mut self, group: &[usize]) {
        group.iter().for_each(|&rank| self.0[rank].collectives += 1);
    }

    fn send(&mut self, from: usize, to: usize, bytes: u64) {
        self.0[from].msgs_sent += 1;
        self.0[from].bytes_sent += bytes;
        self.0[to].msgs_received += 1;
        self.0[to].bytes_received += bytes;
    }

    /// Binomial broadcast from local rank `root`: relative rank `d > 0`
    /// receives from `d − lowbit(d)`. One superstep per send and per
    /// receive.
    fn bcast(&mut self, group: &[usize], root: usize, bytes: u64) {
        self.enter(group);
        let at = |d: usize| group[(d + root) % group.len()];
        for d in 1..group.len() {
            let (parent, child) = (at(d - (d & d.wrapping_neg())), at(d));
            self.send(parent, child, bytes);
            self.0[parent].supersteps += 1;
            self.0[child].supersteps += 1;
        }
    }

    /// Binomial reduce of `len` words onto local rank 0: `d > 0` sends to
    /// `d − lowbit(d)` after `tz(d)` rounds, each a superstep, and the
    /// receiver charges a flop per word; the root runs `⌈log₂ p⌉` rounds.
    fn reduce(&mut self, group: &[usize], len: u64) {
        self.enter(group);
        self.0[group[0]].supersteps += u64::from(group.len().next_power_of_two().trailing_zeros());
        for d in 1..group.len() {
            let parent = group[d - (d & d.wrapping_neg())];
            self.send(group[d], parent, 8 * len);
            self.0[parent].flops += len;
            self.0[group[d]].supersteps += u64::from(d.trailing_zeros()) + 1;
        }
    }

    /// Reduce onto local rank 0, then broadcast from it.
    fn allreduce(&mut self, group: &[usize], len: u64) {
        self.reduce(group, len);
        self.bcast(group, 0, 8 * len);
    }

    /// Ring allgather: in round `s` local rank `d` forwards the block that
    /// started at `d − s` to `d + 1`; one superstep per round.
    fn allgatherv(&mut self, group: &[usize], bytes: &[u64]) {
        self.enter(group);
        let p = group.len();
        for s in 0..p.saturating_sub(1) {
            for d in 0..p {
                self.send(group[d], group[(d + 1) % p], bytes[(d + p - s) % p]);
                self.0[group[d]].supersteps += 1;
            }
        }
    }

    /// Gather onto local rank 0 by direct sends (the root sends itself
    /// nothing); one superstep everywhere.
    fn gatherv(&mut self, group: &[usize], bytes: &[u64]) {
        self.enter(group);
        for d in 0..group.len() {
            if d > 0 {
                self.send(group[d], group[0], bytes[d]);
            }
            self.0[group[d]].supersteps += 1;
        }
    }
}

/// Block `idx` of `0..total` cut into `parts` near-equal pieces.
fn block(total: usize, parts: usize, idx: usize) -> Range<usize> {
    (idx * total / parts)..((idx + 1) * total / parts)
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// The wire bytes of a SUMMA block with `major` columns (CSC) or word
/// rows (CSR) and `words` stored words.
fn narrow_bytes(major: usize, words: u64) -> u64 {
    16 + 4 * (major as u64 + 1 + words) + 8 * words
}

/// One batch as the driver reads it on an `r × q` layer grid: each
/// sample's values in the batch, the survivors, and the packed batch's
/// stored words as `(word row, R_i, C_j)` — the row and column blocks of
/// the word's sample — in word-row order.
struct Batch<'c> {
    values: Vec<&'c [u64]>,
    survivors: Vec<u64>,
    word_rows: usize,
    words: Vec<(usize, usize, usize)>,
}

impl<'c> Batch<'c> {
    fn read(
        collection: &'c SampleCollection,
        (lo, hi): (u64, u64),
        filter: bool,
        [r, q]: [usize; 2],
    ) -> Batch<'c> {
        let n = collection.n();
        let values: Vec<&[u64]> = (0..n).map(|s| collection.batch_values(s, lo, hi)).collect();
        let survivors = if filter { distinct(&values) } else { Vec::new() };
        let row = |v: u64| match filter {
            true => survivors.partition_point(|&x| x < v),
            false => (v - lo) as usize,
        };
        let rows = if filter { survivors.len() } else { (hi - lo) as usize };
        let block_of = |parts, s| (0..parts).position(|b| block(n, parts, b).contains(&s));
        let mut words = Vec::new();
        for (s, sample) in values.iter().enumerate() {
            let (i, j) =
                (block_of(r, s).expect("a row block"), block_of(q, s).expect("a column block"));
            let mut sample_words: Vec<usize> = sample.iter().map(|&v| row(v) / 64).collect();
            sample_words.dedup();
            words.extend(sample_words.into_iter().map(|w| (w, i, j)));
        }
        // Stable: the samples' runs are merged, not re-sorted.
        words.sort();
        Batch { values, survivors, word_rows: rows.div_ceil(64), words }
    }

    /// Over the word rows of `chunk`: the stored words of each row block
    /// and of each column block, and each pair's Gustavson count
    /// `Σ_w nnz_{R_i}(w)·nnz_{C_j}(w)`, at `i·q + j`.
    fn step(&self, chunk: &Range<usize>, [r, q]: [usize; 2]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let from = self.words.partition_point(|&(w, ..)| w < chunk.start);
        let to = self.words.partition_point(|&(w, ..)| w < chunk.end);
        let (mut left, mut right, mut products) = (vec![0; r], vec![0; q], vec![0; r * q]);
        let (mut in_row, mut in_col) = (vec![0; r], vec![0; q]);
        for word_row in self.words[from..to].chunk_by(|a, b| a.0 == b.0) {
            in_row.fill(0);
            in_col.fill(0);
            for &(_, i, j) in word_row {
                in_row[i] += 1;
                in_col[j] += 1;
            }
            for (i, j) in (0..r).flat_map(|i| (0..q).map(move |j| (i, j))) {
                products[i * q + j] += in_row[i] * in_col[j];
            }
            left.iter_mut().zip(&in_row).for_each(|(total, count)| *total += count);
            right.iter_mut().zip(&in_col).for_each(|(total, count)| *total += count);
        }
        (left, right, products)
    }
}

/// The sorted union of `values`.
fn distinct(values: &[&[u64]]) -> Vec<u64> {
    let mut all: Vec<u64> = values.iter().flat_map(|s| s.iter().copied()).collect();
    all.sort();
    all.dedup();
    all
}

/// Every rank's counters for `similarity_at_scale_distributed` over
/// `collection` on the `r × q × c` grid, batched by `plan`, with the
/// zero-row filter on or off.
pub fn paper_schedule(
    collection: &SampleCollection,
    [r, q, c]: [usize; 3],
    plan: &BatchPlan,
    filter: bool,
) -> Vec<Counters> {
    let (n, p, steps) = (collection.n(), r * q * c, lcm(r, q));
    let rank = |i: usize, j: usize, k: usize| i + r * (j + q * k);
    let world: Vec<usize> = (0..p).collect();
    let pairs = || (0..r).flat_map(|i| (0..q).map(move |j| (i, j)));
    let (rows_of, cols_of) = (|i| block(n, r, i), |j| block(n, q, j));
    let mut ledger = Ledger(vec![Counters::default(); p]);
    for _ in 0..4 {
        ledger.allgatherv(&world, &vec![16; p]);
    }
    for (lo, hi) in plan.iter() {
        let batch = Batch::read(collection, (lo, hi), filter, [r, q]);
        if filter {
            // Rank `i + r·(j + q·k)` reads column block `C_j`.
            let column_block = |rank: usize| &batch.values[cols_of(rank / r % q)];
            for (rank, counters) in ledger.0.iter_mut().enumerate() {
                counters.mem_traffic +=
                    8 * column_block(rank).iter().map(|s| s.len() as u64).sum::<u64>();
            }
            let bitmap_words = (hi - lo).div_ceil(64);
            let renumbered = if bitmap_words <= 64 * collection.batch_nnz(lo, hi) {
                ledger.allreduce(&world, bitmap_words);
                bitmap_words
            } else {
                let rows = |rank| 8 * distinct(column_block(rank)).len() as u64;
                ledger
                    .allgatherv(&world, &world.iter().map(|&rank| rows(rank)).collect::<Vec<_>>());
                batch.survivors.len() as u64
            };
            ledger.0.iter_mut().for_each(|counters| counters.flops += renumbered);
        }
        for (k, t) in (0..c).flat_map(|k| (0..steps).map(move |t| (k, t))) {
            let chunk = block(batch.word_rows, steps * c, k * steps + t);
            let (left_words, right_words, products) = batch.step(&chunk, [r, q]);
            if r * q > 1 {
                for (j, &words) in right_words.iter().enumerate() {
                    let col_comm: Vec<usize> = (0..r).map(|i| rank(i, j, k)).collect();
                    ledger.bcast(&col_comm, t % r, narrow_bytes(chunk.len(), words));
                }
                for (i, &words) in left_words.iter().enumerate() {
                    let row_comm: Vec<usize> = (0..q).map(|j| rank(i, j, k)).collect();
                    ledger.bcast(&row_comm, t % q, narrow_bytes(rows_of(i).len(), words));
                }
            }
            for (i, j) in pairs() {
                ledger.0[rank(i, j, k)].flops += products[i * q + j];
            }
        }
        ledger.0.iter_mut().for_each(|counters| counters.supersteps += 1);
    }
    let block_len = |i, j| (rows_of(i).len() * cols_of(j).len()) as u64;
    if c > 1 {
        for (i, j) in pairs() {
            let fiber: Vec<usize> = (0..c).map(|k| rank(i, j, k)).collect();
            ledger.reduce(&fiber, block_len(i, j));
        }
    }
    ledger.allreduce(&world, n as u64);
    let gathered = |rank: usize| match (rank % r, rank / r % q, rank / (r * q)) {
        (i, j, 0) if rank != 0 => 8 * block_len(i, j),
        _ => 0,
    };
    ledger.gatherv(&world, &world.iter().map(|&rank| gathered(rank)).collect::<Vec<_>>());
    ledger.0
}
