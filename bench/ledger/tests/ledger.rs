//! Whole-workload checks at smoke sizes.

use bench_ledger::harness::RunArgs;
use bench_ledger::metrics::{Report, PER_LAYER, WORKLOADS};
use bench_ledger::workloads::{self, allpairs_dense, allpairs_dist, serve_mixed, serve_read};

#[test]
fn fixture_fingerprints_are_pinned_for_seed_1_and_differ_for_seed_2() {
    type Fingerprint = fn(u64) -> u64;
    let fingerprints: [(&str, Fingerprint, u64); 4] = [
        (allpairs_dense::NAME, allpairs_dense::fixture_fingerprint, 0x0483_1f32_0ebb_7a8c),
        (allpairs_dist::NAME, allpairs_dist::fixture_fingerprint, 0x7e29_8473_43ea_6bbc),
        (serve_read::NAME, serve_read::fixture_fingerprint, 0x0521_6e39_742e_9b79),
        (serve_mixed::NAME, serve_mixed::fixture_fingerprint, 0x0907_52ea_dc19_4469),
    ];
    for (name, fingerprint, pinned) in fingerprints {
        assert_eq!(
            fingerprint(1),
            pinned,
            "{name}: the seed-1 fixture changed: {:#x}",
            fingerprint(1)
        );
        assert_ne!(fingerprint(2), pinned, "{name}: seed 2 makes the seed-1 fixture");
    }
}

fn exact_counts(report: &Report) -> Vec<(&'static str, u64)> {
    PER_LAYER
        .iter()
        .filter(|l| l.exact)
        .map(|l| (l.name, report.value(l.name).unwrap_or(0.0).to_bits()))
        .collect()
}

#[test]
fn serve_mixed_smoke_twice_yields_identical_exact_counts() {
    let args = RunArgs { seed: 1, seconds: 1.0, trace: true, smoke: true };
    let first = workloads::run(serve_mixed::NAME, &args).unwrap();
    let second = workloads::run(serve_mixed::NAME, &args).unwrap();
    assert!(first.correct && second.correct, "{:?} {:?}", first.findings, second.findings);
    assert!(first.attempted > 0 && first.failed == 0);
    assert_eq!(exact_counts(&first), exact_counts(&second));
    assert!(first.value("index.service.compaction_passes").unwrap() > 0.0);
    assert_eq!(first.value("index.service.shed"), Some(0.0));
    assert!(!first.comparable);
}

#[test]
fn unknown_workloads_are_refused() {
    let args = RunArgs { seed: 1, seconds: 1.0, trace: false, smoke: true };
    assert!(workloads::run("allpairs", &args).is_none());
    assert_eq!(WORKLOADS.len(), 4);
}
