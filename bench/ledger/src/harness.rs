//! The run shape every workload shares: timed set-ups, a discarded
//! warm-up, fixed blocks of work timed with one `Instant` pair each, and
//! the process-level readings (peak RSS, CPU time, CPU pinning).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;

/// How one run was asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny fixtures and a fixed, short sample count: checks the schema
    /// and the oracles, not the speed.
    pub smoke: bool,
}

/// Set-up is repeated at least this often on fresh state; `setup_s` is
/// the fastest.
pub const SETUP_REPEATS: usize = 5;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(500);
const SETUP_MAX_REPEATS: usize = 100;
/// A run with fewer samples is reported invalid: its fast tail would
/// rest on a single one of them with none to spare.
pub const MIN_SAMPLES: usize = 80;

/// Samples per block of a traced run (see [`measure`]).
const TRACE_BLOCK: u32 = 8;

/// What one sample (one fixed block of work) did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Time between the sample's one `Instant` pair.
    pub elapsed: Duration,
    /// Operations of the sample that returned an error, were shed, or
    /// whose output disagreed with an oracle.
    pub failed: u64,
}

/// A workload ready to run: set-up done, fixture in memory.
pub trait Workload {
    /// Operations in one sample.
    fn ops_per_sample(&self) -> u64;

    /// Run sample `index`. With a tracer the sample replays the driver
    /// phase by phase under spans; without one it calls the program as a
    /// user would. Preparation and checks happen outside the sample's
    /// `Instant` pair.
    fn sample(&mut self, index: u32, tracer: Option<&mut Tracer>) -> Outcome;
}

/// Samples of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Per-sample time in milliseconds, in run order.
    pub ms: Vec<f64>,
    pub failed: u64,
    /// Process CPU time spent inside the samples, in milliseconds.
    pub cpu_ms: f64,
}

impl Samples {
    fn push(&mut self, outcome: Outcome, cpu: Duration) {
        self.ms.push(outcome.elapsed.as_secs_f64() * 1e3);
        self.failed += outcome.failed;
        self.cpu_ms += cpu.as_secs_f64() * 1e3;
    }

    pub fn sorted_ms(&self) -> Vec<f64> {
        stats::sorted(self.ms.clone())
    }
}

/// The measured phase(s) of a run.
#[derive(Debug, Default)]
pub struct Measured {
    pub untraced: Samples,
    /// Traced samples, interleaved one for one with the untraced ones
    /// (traced runs only).
    pub traced: Samples,
    pub tracer: Tracer,
}

fn run_sample(
    w: &mut dyn Workload,
    index: u32,
    tracer: Option<&mut Tracer>,
) -> (Outcome, Duration) {
    let cpu_before = process_cpu_time();
    let outcome = w.sample(index, tracer);
    (outcome, process_cpu_time().saturating_sub(cpu_before))
}

/// Warm up, then measure. Untraced runs are bounded by time
/// (`args.seconds`); traced and smoke runs by a fixed number of samples
/// (`fixed_samples`), because the exact per-layer counts must not depend
/// on how fast the host happened to be.
pub fn measure(w: &mut dyn Workload, args: &RunArgs, fixed_samples: u32) -> Measured {
    let mut out = Measured::default();
    let mut index = 0u32;
    let mut next = |w: &mut dyn Workload, tracer: Option<&mut Tracer>| {
        let result = run_sample(w, index, tracer);
        index += 1;
        result
    };
    if args.smoke || args.trace {
        for _ in 0..(fixed_samples / 8).max(1) {
            next(w, None);
        }
        // Untraced and traced samples alternate in blocks, not one for
        // one: `serve_mixed` cycles differ with a period of four (every
        // fourth `maintain()` merges a higher tier), and strict
        // alternation would hand all of one kind to one side.
        let mut done = 0;
        while done < fixed_samples {
            let block = TRACE_BLOCK.min(fixed_samples - done);
            for _ in 0..block {
                let (outcome, cpu) = next(w, None);
                out.untraced.push(outcome, cpu);
            }
            for k in 0..if args.trace { block } else { 0 } {
                out.tracer.begin_sample(done + k);
                let (outcome, cpu) = next(w, Some(&mut out.tracer));
                out.traced.push(outcome, cpu);
            }
            done += block;
        }
        return out;
    }
    // The first seconds of a process run 3–8 % slow on this host; five
    // seconds of discarded ops (a fifth of a short manual run) cover it.
    let warmup = Duration::from_secs_f64((args.seconds / 5.0).min(5.0));
    let started = Instant::now();
    while started.elapsed() < warmup {
        next(w, None);
    }
    let measure = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while started.elapsed() < measure {
        let (outcome, cpu) = next(w, None);
        out.untraced.push(outcome, cpu);
    }
    out
}

/// The part of a run every workload shares: warm up and measure
/// ([`measure`]), then fill what a report derives the same way everywhere
/// — the sample statistics, attempted and failed ops (`failure` says what
/// a failed op means here), set-up time and memory — and, traced, write
/// the spans out. The peak heap is read before the caller's oracles run:
/// they are the benchmark's work, not the program's.
pub fn measure_and_report(
    w: &mut dyn Workload,
    args: &RunArgs,
    fixed_samples: u32,
    report: &mut Report,
    setup_s: f64,
    failure: &str,
) -> Measured {
    let measured = measure(w, args, fixed_samples);
    report_samples(report, &measured, w.ops_per_sample());
    if report.failed > 0 {
        report.fail(format!("{} {failure}", report.failed));
    }
    if report.traced {
        // Peak RSS does not repeat here (see [`crate::alloc`]): ungated.
        report.set("bench.peak_rss_mb", peak_rss_mb());
        write_trace(report.workload, &measured.tracer).expect("results/ is writable");
    } else {
        report.set("setup_s", setup_s);
        report.set("peak_heap_mb", crate::alloc::peak_heap_mb());
    }
    measured
}

/// Fill the metrics every workload derives the same way from its
/// samples, and the attempted/failed counts.
fn report_samples(report: &mut Report, m: &Measured, ops_per_sample: u64) {
    let ops = ops_per_sample as f64;
    let sorted = m.untraced.sorted_ms();
    let fast = stats::fast_tail(&sorted);
    report.attempted = (m.untraced.ms.len() + m.traced.ms.len()) as u64 * ops_per_sample;
    report.failed = m.untraced.failed + m.traced.failed;
    if !report.traced {
        report.set("op_ms", fast / ops);
        if report.comparable {
            if sorted.len() < MIN_SAMPLES {
                report.fail(format!(
                    "invalid run: {} samples, the fast tail needs {MIN_SAMPLES}",
                    sorted.len()
                ));
            }
            // The whole series, for whoever wants another statistic.
            let series = Json::obj([
                ("workload", Json::str(report.workload)),
                ("seed", Json::Num(report.seed as f64)),
                ("sample_ms", Json::Arr(m.untraced.ms.iter().map(|&ms| Json::Num(ms)).collect())),
            ]);
            let path = results_dir().join(format!("{}.samples.json", report.workload));
            if std::fs::create_dir_all(results_dir()).is_ok() {
                // Best effort: the result line does not depend on it.
                let _ = std::fs::write(path, series.write() + "\n");
            }
        }
        return;
    }
    let total_ms: f64 = m.untraced.ms.iter().sum();
    let total_ops = m.untraced.ms.len() as f64 * ops;
    report.set("bench.op_p50_ms", stats::median(&sorted) / ops);
    report.set("bench.op_tail_ms", stats::tail_value(&sorted) / ops);
    report.set("bench.ops_per_s", total_ops / (total_ms / 1e3));
    report.set("bench.cpu_ms_per_op", m.untraced.cpu_ms / total_ops);
    report.set("bench.samples", sorted.len() as f64);
    report.set("bench.op_p10_ms", stats::percentile(&sorted, 10.0) / ops);
    report.set("bench.noise_ratio", stats::median(&sorted) / fast);
    report.set("trace.overhead_ratio", stats::fast_tail(&m.traced.sorted_ms()) / fast);
}

/// Run `setup` at least [`SETUP_REPEATS`] times — and until
/// [`SETUP_MIN_TOTAL`] of set-up time has been measured, so that the
/// fastest of a millisecond-sized set-up rests on many tries — each on
/// the fresh input `prepare` makes outside the timer. Returns the
/// fastest time in seconds with the last state built.
pub fn time_setups<I, S>(
    mut prepare: impl FnMut(usize) -> I,
    mut setup: impl FnMut(I) -> S,
) -> (f64, S) {
    // Every workload comes here with its seeded fixture just made: the
    // heap peak counts from now, the program's work only.
    crate::alloc::reset_peak();
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut state = None;
    let mut round = 0;
    while round < SETUP_REPEATS || (total < SETUP_MIN_TOTAL && round < SETUP_MAX_REPEATS) {
        // Drop the previous state first, so two copies never add up in
        // the peak RSS.
        drop(state.take());
        let input = prepare(round);
        let started = Instant::now();
        let built = setup(input);
        let elapsed = started.elapsed();
        best = best.min(elapsed);
        total += elapsed;
        state = Some(built);
        round += 1;
    }
    (best.as_secs_f64(), state.expect("SETUP_REPEATS is positive"))
}

/// FNV-1a over a stream of words: the fingerprint of fixtures and
/// answers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a list of sets (a fixture's columns or rows).
pub fn fingerprint_sets(sets: &[Vec<u64>]) -> u64 {
    let mut h = Fnv::default();
    for set in sets {
        h.word(set.len() as u64);
        h.words(set);
    }
    h.finish()
}

/// splitmix64: the one generator the benchmark's own fixtures use.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A directory under `bench/ledger/results/` for the files a run makes
/// (k-mer fixtures, index containers); removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = results_dir().join("tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and reused
        // by no one (the name carries the pid).
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `bench/ledger/results/` of the checkout this binary was built in —
/// the one place the benchmark writes.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Write the spans of a traced run to `results/<workload>.trace.json`.
fn write_trace(workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(
        dir.join(format!("{workload}.trace.json")),
        tracer.to_json(workload).write() + "\n",
    )
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all threads together.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for) and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Words of a CPU mask: room for 1024 CPUs, the kernel's default set.
const MASK_WORDS: usize = 16;

/// Run `f` with the calling thread pinned to the first CPU it may use.
/// `std::thread::available_parallelism` then reports one CPU, so the
/// rayon stand-in (which asks on every call) runs `f`'s parallel
/// sections inline: the same kernel, one thread. Returns `None` when the
/// host refuses the pin.
pub fn pinned_to_one_cpu<R>(f: impl FnOnce() -> R) -> Option<R> {
    let mut original = [0u64; MASK_WORDS];
    // SAFETY: the mask pointer is valid for `MASK_WORDS * 8` bytes, the
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, original.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let word = original.iter().position(|&w| w != 0)?;
    let mut single = [0u64; MASK_WORDS];
    single[word] = 1 << original[word].trailing_zeros();
    // SAFETY: as above; the mask is read-only here.
    if unsafe { sched_setaffinity(0, MASK_WORDS * 8, single.as_ptr()) } != 0 {
        return None;
    }
    let out = f();
    // SAFETY: as above. Restoring the mask the kernel handed out cannot
    // be refused for a reason the first call was not.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, original.as_ptr()) };
    assert_eq!(rc, 0, "could not restore the CPU affinity mask");
    Some(out)
}

/// Median of `reps` timings of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median_of(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u32);

    impl Workload for Fixed {
        fn ops_per_sample(&self) -> u64 {
            4
        }

        fn sample(&mut self, index: u32, tracer: Option<&mut Tracer>) -> Outcome {
            assert_eq!(index, self.0, "sample indices are consecutive across phases");
            self.0 += 1;
            if let Some(t) = tracer {
                t.scope("op", |_| ());
            }
            Outcome { elapsed: Duration::from_millis(u64::from(index % 3) + 1), failed: 0 }
        }
    }

    #[test]
    fn fixed_count_runs_alternate_blocks_of_untraced_and_traced_samples() {
        let args = RunArgs { seed: 1, seconds: 1.0, trace: true, smoke: false };
        let m = measure(&mut Fixed(0), &args, 16);
        assert_eq!((m.untraced.ms.len(), m.traced.ms.len()), (16, 16));
        assert_eq!(m.tracer.spans().len(), 16);
        assert_eq!(m.tracer.spans()[5].sample, 5);
        let mut report = Report::new("serve_read", 1, true, true);
        report_samples(&mut report, &m, 4);
        assert_eq!(report.attempted, 128);
        assert_eq!(report.value("bench.samples"), Some(16.0));
    }

    #[test]
    fn timed_runs_stop_after_the_asked_seconds_and_flag_thin_samples() {
        let args = RunArgs { seed: 1, seconds: 0.05, trace: false, smoke: false };
        let started = Instant::now();
        let m = measure(&mut Fixed(0), &args, 16);
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert!(m.traced.ms.is_empty() && !m.untraced.ms.is_empty());
        let mut report = Report::new("serve_read", 1, false, true);
        let thin = Measured {
            untraced: Samples { ms: vec![1.0; MIN_SAMPLES - 1], ..Default::default() },
            ..Default::default()
        };
        report_samples(&mut report, &thin, 4);
        assert!(!report.correct);
        assert_eq!(report.value("op_ms"), Some(0.25));
    }

    #[test]
    fn setups_report_the_fastest_of_at_least_five_on_fresh_input() {
        let mut prepared = Vec::new();
        let (best, state) = time_setups(
            |round| {
                prepared.push(round);
                round
            },
            |round| {
                std::thread::sleep(Duration::from_millis(if round == 2 { 1 } else { 125 }));
                round
            },
        );
        assert_eq!(prepared, vec![0, 1, 2, 3, 4], "500 ms of set-up are reached within five");
        assert_eq!(state, 4);
        assert!((0.001..0.125).contains(&best), "{best}");
        let mut rounds = 0;
        time_setups(|_| (), |()| rounds += 1);
        assert_eq!(rounds, SETUP_MAX_REPEATS, "instant set-ups stop at the cap");
    }

    #[test]
    fn process_readings_are_sane() {
        assert!(peak_rss_mb() > 1.0);
        let before = process_cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(splitmix64(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_time() > before);
        if let Some(cpus) =
            pinned_to_one_cpu(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
        {
            assert_eq!(cpus, 1);
        }
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the eight bytes 01 00 … 00.
        let mut h = Fnv::default();
        h.word(1);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for byte in 1u64.to_le_bytes() {
            expect = (expect ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
