//! Workload construction shared by the experiment binaries and the
//! paper-evaluation tests.
//!
//! Each workload is a scaled-down synthetic stand-in for a dataset of
//! Section V-A, built through `gas-genomics::datasets`. The caller picks
//! the scale.

use gas_core::indicator::SampleCollection;
use gas_genomics::datasets::DatasetSpec;

/// Kingsford-like workload (low variability, density ≈ 1.5e-4).
pub fn kingsford_collection(scale: f64) -> SampleCollection {
    let spec = DatasetSpec::kingsford_like(scale);
    SampleCollection::from_sorted_sets(spec.generate().expect("valid preset"))
        .expect("generated samples are sorted")
        .with_universe(spec.m_attributes as u64)
        .expect("universe covers generated values")
}

/// BIGSI-like workload (extremely sparse, highly skewed column density).
pub fn bigsi_collection(scale: f64) -> SampleCollection {
    let spec = DatasetSpec::bigsi_like(scale);
    SampleCollection::from_sorted_sets(spec.generate().expect("valid preset"))
        .expect("generated samples are sorted")
        .with_universe(spec.m_attributes as u64)
        .expect("universe covers generated values")
}

/// The paper's synthetic workload with explicit dimensions and density.
pub fn synthetic_collection(m: usize, n: usize, density: f64, seed: u64) -> SampleCollection {
    let spec = DatasetSpec::explicit(m, n, density, seed);
    SampleCollection::from_sorted_sets(spec.generate().expect("valid spec"))
        .expect("generated samples are sorted")
        .with_universe(m as u64)
        .expect("universe covers generated values")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        let k = kingsford_collection(0.004);
        assert!(k.n() >= 4);
        assert!(k.nnz() > 0);
        let b = bigsi_collection(0.00005);
        assert!(b.n() >= 8);
        let s = synthetic_collection(5000, 16, 0.01, 3);
        assert_eq!(s.n(), 16);
        assert!((s.density() - 0.01).abs() < 0.005);
    }
}
