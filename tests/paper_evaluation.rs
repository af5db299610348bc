//! The paper's evaluation (Section IV's cost analysis, Section V's
//! Figures 2–3 and §V-D, and Table II's MinHash row), asserted on exact
//! counts.
//!
//! Every simulated byte, message, superstep and flop is counted exactly, so
//! [`DistributedRunSummary::projected_time`] under a fixed machine is a
//! deterministic function of the run. Each test prices runs on the
//! Stampede2-like KNL preset the paper used and asserts the direction or
//! band the paper reports. No test reads a clock, and each band is derived
//! in a comment — from the cost terms, or for MinHash from its sampling
//! error — not fitted to a run. README's "The
//! paper's evaluation, as tests" maps every claim to its test, including
//! the ones not reproduced at test scale.
//!
//! The fixtures are `gas_genomics::datasets` presets, scaled so the whole
//! file runs in seconds unoptimised. The projected time is
//! `α·S + β·B + γ·F + M/stream_bw`, each counter the maximum over ranks
//! ([`CostModel::project`]). On the Stampede2 preset `α` = 2 µs per
//! superstep, `β` = 2.56 ns per byte (12.5 GB/s shared by 32 ranks) and
//! `γ` = 0.83 ns per flop, so a byte on the wire costs about three flops.

use gas_core::algorithm::{similarity_at_scale_distributed, DistributedRunSummary};
use gas_core::batch::BatchPlan;
use gas_core::config::SimilarityConfig;
use gas_core::indicator::SampleCollection;
use gas_core::minhash::MinHasher;
use gas_dstsim::cost::{CostModel, CostReport};
use gas_dstsim::machine::Machine;
use gas_genomics::datasets::DatasetSpec;
use gas_genomics::kmer::KmerExtractor;
use gas_genomics::sample::KmerSample;
use gas_genomics::synth::{genome_family, mutate};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod schedule;
use schedule::{assert_schedule, paper_schedule};

/// The rank counts of every strong-scaling sweep: one simulated rank per
/// paper node, up to the 16 a test can afford.
const RANKS: [usize; 5] = [1, 2, 4, 8, 16];

/// A dataset preset as a collection over its full attribute universe, so
/// every batch plan cuts the same rows the preset describes.
fn collection(spec: DatasetSpec) -> SampleCollection {
    SampleCollection::from_sorted_sets(spec.generate().expect("valid spec"))
        .expect("generated samples are sorted")
        .with_universe(spec.m_attributes as u64)
        .expect("universe covers generated values")
}

fn stampede2() -> CostModel {
    Machine::stampede2_knl().cost_model().expect("the preset is valid")
}

fn run(collection: &SampleCollection, p: usize, batches: usize) -> Terms {
    let config = SimilarityConfig::with_batches(batches);
    let summary =
        similarity_at_scale_distributed(collection, &config, p, &Machine::stampede2_knl())
            .expect("simulated run succeeds");
    Terms::of(&summary, &stampede2())
}

/// The max-rank counters of one run and the four terms of its projected
/// time, in seconds.
#[derive(Debug, Clone, Copy)]
struct Terms {
    supersteps: u64,
    /// `max(bytes_sent, bytes_received)` of the busiest rank.
    bytes: u64,
    /// Bytes world rank 0 received: the output gather lands there.
    rank0_received: u64,
    flops: u64,
    mem_traffic: u64,
    latency: f64,
    bandwidth: f64,
    compute: f64,
    stream: f64,
}

impl Terms {
    fn of(summary: &DistributedRunSummary, model: &CostModel) -> Terms {
        let max = |counter: fn(&CostReport) -> u64| {
            summary.reports.iter().map(counter).max().expect("at least one rank")
        };
        let supersteps = max(|r| r.supersteps);
        let bytes = max(|r| r.bytes_sent.max(r.bytes_received));
        let flops = max(|r| r.flops);
        let mem_traffic = max(|r| r.mem_traffic);
        let terms = Terms {
            supersteps,
            bytes,
            rank0_received: summary.reports[0].bytes_received,
            flops,
            mem_traffic,
            latency: supersteps as f64 * model.alpha,
            bandwidth: bytes as f64 * model.beta,
            compute: flops as f64 * model.gamma,
            stream: mem_traffic as f64 / model.stream_bw,
        };
        // The decomposition is the projection, term for term.
        let projected = summary.projected_time(model);
        assert!((terms.total() - projected).abs() <= 1e-12 * projected, "{terms:?}");
        terms
    }

    fn total(&self) -> f64 {
        self.latency + self.bandwidth + self.compute + self.stream
    }
}

/// The paper's strong-scaling protocol: the batch count halves each time
/// the rank count doubles, from `base_batches` at one rank.
fn strong_scaling(collection: &SampleCollection, base_batches: usize) -> Vec<Terms> {
    RANKS.iter().map(|&p| run(collection, p, base_batches / p)).collect()
}

/// What shipping the `n × n` output to one rank costs against computing
/// it there: `8·n²·β` (the gather moves every `u64` entry) over `γ·F₁`,
/// the product term of the one-rank run. Above 1 the gather outprices
/// the product it parallelises.
fn gather_over_product(collection: &SampleCollection, one_rank: &Terms) -> f64 {
    let n = collection.n() as f64;
    8.0 * n * n * stampede2().beta / one_rank.compute
}

fn totals(series: &[Terms]) -> Vec<f64> {
    series.iter().map(Terms::total).collect()
}

fn strictly_falls(times: &[f64]) -> bool {
    times.windows(2).all(|w| w[1] < w[0])
}

fn strictly_rises(times: &[f64]) -> bool {
    times.windows(2).all(|w| w[1] > w[0])
}

// Fig. 2b/2e: projected time falls as ranks are added.
//
// From p to 2p ranks the product term drops by γ·F₁/(2p): each rank owns
// 1/p of the output and computes only its products. The communication
// grows by at most:
// - the output gather, 8·n²·(1 − 1/p) bytes onto rank 0, which rises by
//   8·n²·β/(2p);
// - the operand broadcasts, which appear at p = 2 and then stay flat,
//   since each rank's share of the z/√(cp) term shrinks as its peers grow;
// - a few supersteps of α per batch.
// So the time falls while γ·F₁ outweighs 8·n²·β with room for the
// operands. Both fixtures have many products per output entry: the
// gather costs a tenth (BIGSI-like) and a sixteenth (synthetic) of the
// product (`gather_over_product`). At p = 2 the first operand broadcasts
// cost β·B ≈ 1.1–1.25 ms, against the γ·F₁/2 ≈ 1.7–1.85 ms they save.

#[test]
fn fig2b_bigsi_strong_scaling_projected_time_falls() {
    let collection = collection(DatasetSpec::bigsi_like(0.0003));
    let series = strong_scaling(&collection, 16);
    assert!(gather_over_product(&collection, &series[0]) < 1.0);
    let times = totals(&series);
    assert!(strictly_falls(&times), "{times:?}");
}

#[test]
fn fig2e_synthetic_strong_scaling_projected_time_falls() {
    let collection = collection(DatasetSpec::explicit(100_000, 100, 0.01, 2020));
    let series = strong_scaling(&collection, 16);
    assert!(gather_over_product(&collection, &series[0]) < 1.0);
    let times = totals(&series);
    assert!(strictly_falls(&times), "{times:?}");
}

// Fig. 2a is not reproduced at test scale. On the bin's own Kingsford-like
// fixture (n = 516, 68 589 nonzeros) the projected time *rises* with the
// rank count.
//
// The fixture has about 15 products per output entry, so 8·n²·β (5.5 ms)
// outprices γ·F₁ (3.3 ms). The lower bound
// L(p) = 8·n²·(1 − 1/p)·β + γ·F₁/p has dL/d(1/p) = γ·F₁ − 8·n²·β < 0,
// so it grows with p. The filter OR-allreduce, log₂p bitmap rounds per
// batch, adds to it. The paper's datasets have far more k-mers per
// sample, so there the product dominates, as in 2b/2e.
#[test]
fn fig2a_kingsford_strong_scaling_projected_time_rises_at_test_scale() {
    let collection = collection(DatasetSpec::kingsford_like(0.2));
    let n = collection.n() as u64;
    let series = strong_scaling(&collection, 64);
    assert!(gather_over_product(&collection, &series[0]) > 1.0);
    for (&p, terms) in RANKS.iter().zip(&series) {
        // The gather alone: every block but rank 0's own.
        let gather = 8 * n * n * (p as u64 - 1) / p as u64;
        assert!(terms.rank0_received >= gather, "p={p}: {terms:?}");
    }
    let times = totals(&series);
    assert!(strictly_rises(&times), "{times:?}");
}

// Fig. 2c/2d: smaller batches take less time each, but the projected total
// grows with the batch count, so the largest batch that fits wins.
//
// At a fixed rank count every batch adds the same supersteps: one filter
// OR-allreduce, two broadcasts per SUMMA step and the batch barrier. So
// S(b) = S₀ + s·b exactly. The product count F and the output gather do
// not depend on b; they move only by the few words whose 64-row packing
// a batch boundary splits. T(b) is therefore affine, with slope s·α plus
// the per-batch headers and bitmap rounds on the wire, and the total rises
// with b. The per-batch time T(b)/b = T₀/b + slope falls, because T₀
// holds the product and the gather.
fn assert_batch_sensitivity(collection: &SampleCollection, p: usize, batch_counts: &[usize]) {
    let series: Vec<Terms> = batch_counts.iter().map(|&b| run(collection, p, b)).collect();
    let (b0, s0) = (batch_counts[0] as u64, series[0].supersteps);
    let per_batch = (series[1].supersteps - s0) / (batch_counts[1] as u64 - b0);
    assert!(per_batch > 0);
    for (&b, terms) in batch_counts.iter().zip(&series) {
        assert_eq!(terms.supersteps, s0 + per_batch * (b as u64 - b0), "b={b}");
    }
    let totals = totals(&series);
    let each: Vec<f64> = totals.iter().zip(batch_counts).map(|(t, &b)| t / b as f64).collect();
    assert!(strictly_rises(&totals), "{totals:?}");
    assert!(strictly_falls(&each), "{each:?}");
}

#[test]
fn fig2c_kingsford_batch_sensitivity() {
    assert_batch_sensitivity(
        &collection(DatasetSpec::kingsford_like(0.05)),
        8,
        &[2, 4, 8, 16, 32, 64],
    );
}

#[test]
fn fig2d_bigsi_batch_sensitivity() {
    assert_batch_sensitivity(&collection(DatasetSpec::bigsi_like(0.0003)), 16, &[2, 4, 8, 16, 32]);
}

// Fig. 2f: under weak scaling the modeled time grows more slowly than the
// work per rank (the paper: 35.3× for 64×).
//
// The series is the paper's, shrunk 50×: k-mers and samples double as
// the core count quadruples, at density 0.01, in one batch, with one
// simulated rank per 32 cores (1, 1, 1, 2 and 8 ranks). The products grow
// with m·n², eightfold per point, and split over the ranks: about 1000×
// per rank over the sweep. The time does not keep up, because every run
// pays a floor the work does not scale. At one rank that is two
// supersteps (4 µs, most of the first point's time); beyond it,
// log₂p-deep collectives. The wire term grows with n² (256×) and
// z/√p, both slower than the products per rank.
#[test]
fn fig2f_synthetic_weak_scaling_time_grows_slower_than_work() {
    let points = [(1usize, 1_000usize, 10usize), (4, 2_000, 20), (16, 4_000, 40)];
    let points = points.into_iter().chain([(64, 8_000, 80), (256, 16_000, 160)]);
    let series: Vec<Terms> = points
        .map(|(cores, m, n)| {
            let collection = collection(DatasetSpec::explicit(m, n, 0.01, 90 + cores as u64));
            run(&collection, cores.div_ceil(32), 1)
        })
        .collect();
    let (first, last) = (series[0], series[series.len() - 1]);
    assert!(first.latency > first.total() / 2.0, "the floor dominates the first point");
    let time_growth = last.total() / first.total();
    let work_growth = last.flops as f64 / first.flops as f64;
    assert!(time_growth < work_growth, "time {time_growth:.1}x vs work {work_growth:.1}x");
}

// Fig. 3: the time grows with the number of nonzeros as a density-free
// floor plus a near-constant cost per nonzero. The paper reads a
// near-linear scaling. A log–log slope near 1 is not asserted, because the
// floor dominates at the sparse end.
//
// At m = 320 000, n = 100, p = 16 and 4 batches, the floor is:
// - the supersteps, which do not depend on the data (asserted equal);
// - the filter bitmaps, ⌈batch_rows/64⌉ words per OR-allreduce round;
// - the output gather, 8·n² bytes.
// Above it, each nonzero costs κ(d) = (T(d) − T(d_min)) / (z(d) − z(d_min)).
// A surviving nonzero travels in a 12-byte stored word (8 data + 4 index)
// shared with the other nonzeros of its 64-row word. After the zero-row
// filter the rows are the nonempty ones, so the stored words per nonzero
// are ρ(d) = (1 − (1 − d')⁶⁴) / (64·d') at the per-row density
// d' = d / (1 − (1 − d)ⁿ): ρ = 0.74 at d = 1e-4 and 0.63 at d = 1e-2. The
// wire part of κ is thus proportional to ρ, within a factor 0.74/0.63 =
// 1.17 across the sweep. The product part, γ·ΔF/Δz, is non-negative and
// at most γ·F(d_max)/Δz ≈ 2.2 ns, against a wire part of at least
// ≈ 7.5 ns. So κ_max / κ_min ≤ 1.17 + 2.2/7.5 < 1.5.
#[test]
fn fig3_time_is_a_floor_plus_a_near_constant_cost_per_nonzero() {
    let densities = [1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2];
    let runs: Vec<(f64, Terms)> = densities
        .iter()
        .map(|&d| {
            let collection = collection(DatasetSpec::explicit(320_000, 100, d, 33));
            (collection.nnz() as f64, run(&collection, 16, 4))
        })
        .collect();
    let (z_min, floor) = runs[0];
    for (_, terms) in &runs {
        assert_eq!(terms.supersteps, floor.supersteps);
    }
    let per_nonzero: Vec<f64> =
        runs[1..].iter().map(|(z, t)| (t.total() - floor.total()) / (z - z_min)).collect();
    assert!(per_nonzero.iter().all(|&k| k > 0.0), "{per_nonzero:?}");
    let spread = per_nonzero.iter().copied().fold(f64::MIN, f64::max)
        / per_nonzero.iter().copied().fold(f64::MAX, f64::min);
    assert!(spread < 1.5, "per-nonzero cost spread {spread:.3}: {per_nonzero:?}");
}

// §V-D: running with MCDRAM as flat memory instead of as a cache changes
// the time by a negligible amount (the paper: 9.26 s vs 9.33 s).
//
// The two machines differ only in stream_bw, so every counter is the same
// and the penalty is exactly M·(1/bw_flat − 1/bw_cached). M is 8 bytes for
// each nonzero of a rank's column block, streamed once by the filter
// scatter, at 2.8 GB/s per rank flat (14 GB/s cached): about 2.3 ns per
// nonzero of penalty. The same nonzeros cross the wire in 12-byte stored
// words at 0.39 GB/s per rank, and each takes part in SUMMA steps on
// several ranks. So the penalty is a small fraction of the network term;
// it is bounded here by 1 % of the cached time.
#[test]
fn section_vd_mcdram_penalty_is_the_stream_term_alone() {
    let collection = collection(DatasetSpec::kingsford_like(0.05));
    let config = SimilarityConfig::with_batches(8);
    for p in [4, 16] {
        let [(cached, bw_cached), (flat, bw_flat)] = [true, false].map(|on| {
            let machine = Machine::stampede2_knl().with_mcdram_cache(on);
            let summary = similarity_at_scale_distributed(&collection, &config, p, &machine)
                .expect("simulated run succeeds");
            let model = machine.cost_model().expect("the preset is valid");
            (Terms::of(&summary, &model), model.stream_bw)
        });
        let counters = |t: &Terms| (t.supersteps, t.bytes, t.flops, t.mem_traffic);
        assert_eq!(counters(&cached), counters(&flat), "p={p}");
        let penalty = flat.total() - cached.total();
        let stream_delta = cached.mem_traffic as f64 * (1.0 / bw_flat - 1.0 / bw_cached);
        assert!((penalty - stream_delta).abs() <= 1e-9 * cached.total(), "p={p}");
        assert!(penalty > 0.0 && penalty < 0.01 * cached.total(), "p={p}: {penalty:e}");
    }
}

// Section IV: the busiest rank's bytes per batch stay within a factor 2 of
// 8 × the paper's β-term words z/√(cp) + c·n²/p + p, with the filter off,
// across rectangular grids, replication factors and batch counts. Every
// rank's counters first equal the exact schedule
// (`schedule::paper_schedule`), so the band bounds the schedule ÷ the
// paper's term, grid by grid.
//
// On an r × q × c grid a rank receives the operand blocks of the steps it
// does not own: 12·ρ·z·(r + q − 2)/(c·r·q) bytes per batch at ρ = 0.57
// stored words per nonzero (density 0.02). Against the paper's
// 8·z/(c·√(rq)) that is a factor 1.5·ρ·(r + q − 2)/√(rq): 0.60 on
// 1 × 2 × 2, 1.28 on 4 × 4 × 1. The layer reduce (once per run, not per
// batch) and the output gather onto rank 0 (which the paper leaves out)
// move the ends to 0.59 (p = 4, c = 2, b = 4) and 1.50 (p = 16, c = 1,
// b = 1).
#[test]
fn section_iv_max_rank_bytes_track_the_paper_bandwidth_term() {
    let collection = collection(DatasetSpec::explicit(50_000, 48, 0.02, 5));
    let n = collection.n() as f64;
    // The paper's β term: words the busiest rank moves for a batch of z
    // nonzeros on p ranks with replication c.
    let bandwidth_words = |z: f64, p: f64, c: f64| z / (c * p).sqrt() + c * n * n / p + p;
    let mut checked = 0;
    for p in [4usize, 6, 8, 9, 12, 16] {
        for c in [1usize, 2] {
            for batches in [1usize, 2, 4] {
                let config = SimilarityConfig {
                    use_zero_row_filter: false,
                    ..SimilarityConfig::with_batches(batches).with_replication(c)
                };
                let summary = similarity_at_scale_distributed(
                    &collection,
                    &config,
                    p,
                    &Machine::stampede2_knl(),
                )
                .expect("simulated run succeeds");
                if summary.grid_dims[2] != c {
                    continue; // c is clamped to a divisor of p
                }
                let plan = BatchPlan::from_config(&config, &collection, p).expect("valid plan");
                let scheduled = paper_schedule(&collection, summary.grid_dims, &plan, false);
                let ctx = format!("p={p} c={c} b={batches}");
                assert_schedule(&summary.reports, &scheduled, &ctx);
                let busiest = scheduled.iter().map(|r| r.bytes_sent.max(r.bytes_received)).max();
                let z = collection.nnz() as f64 / batches as f64;
                let paper_bytes = 8.0 * bandwidth_words(z, p as f64, c as f64);
                let ratio = busiest.expect("ranks") as f64 / batches as f64 / paper_bytes;
                assert!((0.5..=2.0).contains(&ratio), "{ctx}: {ratio:.3}");
                checked += 1;
            }
        }
    }
    // Six rank counts × two replication factors × three batch counts,
    // less the three p = 9, c = 2 points.
    assert_eq!(checked, 33);
}

// Table II, "MinHash is approximate": the Mash-style bottom-s sketch
// estimates J from the shared share of the s smallest hashes of A ∪ B,
// a sample of s union elements drawn without replacement. Its standard
// deviation is at most √(J(1−J)/s), and the estimate is a count over s,
// so it moves in steps of 1/s. Every cell of the sweep — pairs from
// near-identical (0.05 % divergence, J ≈ 0.98) to distant (25 %,
// J ≈ 0.001), sketches of 64 to 8192 hashes — must land within
// 4·√(J(1−J)/s) + 1/s of the exact J. That band is the error the paper
// attributes to MinHash and the reason it computes J exactly: at s = 64
// a J ≈ 0.98 pair may read anywhere in about ±0.09.
#[test]
fn table2_minhash_error_stays_within_the_bottom_k_band() {
    let extractor = KmerExtractor::new(21).expect("k = 21 is valid");
    let family = genome_family(50_000, &[], 7).expect("valid family");
    let ancestor = &family[0];
    let a = KmerSample::from_sequence("a", ancestor, &extractor);
    let mut rng = StdRng::seed_from_u64(99);
    let mut cells = 0;
    for divergence in [0.0005, 0.005, 0.02, 0.10, 0.25] {
        let derived = mutate(ancestor, divergence, &mut rng);
        let b = KmerSample::from_sequence("b", &derived, &extractor);
        let exact = a.jaccard(&b);
        for s in [64usize, 256, 1024, 8192] {
            let hasher = MinHasher::new(s).expect("non-empty sketch");
            let estimate = hasher.sketch(a.kmers()).jaccard_estimate(&hasher.sketch(b.kmers()));
            let band = 4.0 * (exact * (1.0 - exact) / s as f64).sqrt() + 1.0 / s as f64;
            let error = (estimate - exact).abs();
            assert!(
                error <= band,
                "divergence {divergence}, s = {s}: |{estimate:.4} − {exact:.4}| > {band:.4}"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 20);
}
